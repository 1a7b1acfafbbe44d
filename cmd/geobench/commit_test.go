package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGitCommitDirty: the stamp is HEAD's short hash in a clean
// checkout, the same hash with "-dirty" once a tracked file differs
// from HEAD (staged or not), and unmarked for untracked files; an
// explicit -commit wins.
func TestGitCommitDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	// Stop git from finding a checkout that encloses the temp dir.
	t.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(dir))
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir,
			"-c", "user.name=bench", "-c", "user.email=bench@example.com",
			"-c", "commit.gpgsign=false"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := gitCommit(dir); got != "" {
		t.Fatalf("outside a checkout: stamp %q, want empty", got)
	}
	git("init", "-q")
	write("tracked.txt", "one\n")
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "first")
	head := git("rev-parse", "--short", "HEAD")

	if got := gitCommit(dir); got != head {
		t.Errorf("clean checkout: stamp %q, want %q", got, head)
	}
	write("untracked.txt", "x\n")
	if got := gitCommit(dir); got != head {
		t.Errorf("untracked file only: stamp %q, want %q", got, head)
	}
	write("tracked.txt", "two\n")
	if got, want := gitCommit(dir), head+"-dirty"; got != want {
		t.Errorf("modified tracked file: stamp %q, want %q", got, want)
	}
	git("add", "tracked.txt")
	if got, want := gitCommit(dir), head+"-dirty"; got != want {
		t.Errorf("staged change: stamp %q, want %q", got, want)
	}
	if got := commitID("abc1234"); got != "abc1234" {
		t.Errorf("explicit -commit: stamp %q, want abc1234", got)
	}
}
