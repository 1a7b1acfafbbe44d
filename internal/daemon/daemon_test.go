package daemon

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

// TestQlogFlags: without -qlog, Open returns the disabled (nil) logger;
// with it, the logger writes to the path and samples at -qlog-sample.
func TestQlogFlags(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	f := RegisterQlogFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	l, err := f.Open("test")
	if err != nil || l != nil {
		t.Fatalf("Open without -qlog = (%v, %v), want the nil logger", l, err)
	}

	fs = flag.NewFlagSet("daemon", flag.ContinueOnError)
	f = RegisterQlogFlags(fs)
	path := filepath.Join(t.TempDir(), "q.log")
	if err := fs.Parse([]string{"-qlog", path, "-qlog-sample", "3"}); err != nil {
		t.Fatal(err)
	}
	if l, err = f.Open("test"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, l.NextID())
	}
	if got := strings.Join(ids, ","); got != "q1,,,q4" {
		t.Errorf("ids at -qlog-sample 3 = %s, want q1,,,q4", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
