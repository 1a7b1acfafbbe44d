package lint

import (
	"go/ast"
	"go/constant"
	"strings"
)

// Envelopecheck pins the /v1 error-envelope contract in cmd/geoserve:
// every error response the daemon emits must be the uniform
// {"error":{"code","message"}} JSON document, produced by the server's
// writeError helper (or the statusWriter that rewrites the mux's own
// 404/405s). A handler that calls http.Error or writes a non-2xx
// status directly hands a client a plain-text body that breaks every
// parser expecting the envelope — precisely the drift the contract
// exists to prevent, and invisible to tests that only exercise the
// happy path.
//
// The check is scoped to the serving package (envelopeDirs); inside it,
// the only functions allowed to write an error status are the envelope
// plumbing itself: writeError, writeJSON (writeError's transport), and
// methods on statusWriter.
func Envelopecheck() *Analyzer {
	return &Analyzer{
		Name: "envelopecheck",
		Doc:  "geoserve handler writes a non-2xx response outside the v1 error envelope",
		Run:  runEnvelopecheck,
	}
}

// envelopeDirs are the packages bound by the envelope contract.
var envelopeDirs = []string{"cmd/geoserve"}

// envelopeAllowedFuncs may write raw statuses: they are the envelope.
var envelopeAllowedFuncs = map[string]bool{
	"writeError": true,
	"writeJSON":  true,
}

// envelopeAllowedRecvs are writer types whose methods implement the
// envelope or capture statuses without emitting them.
var envelopeAllowedRecvs = map[string]bool{
	"statusWriter": true,
}

func runEnvelopecheck(pass *Pass) {
	inScope := false
	for _, d := range envelopeDirs {
		if pass.Pkg.Dir == d || strings.HasPrefix(pass.Pkg.Dir, d+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || envelopeExempt(fd) {
				continue
			}
			// Function literals inside a handler are the handler's code;
			// they are scanned as part of the declaration they live in.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkEnvelopeCall(pass, call)
				return true
			})
		}
	}
}

func envelopeExempt(fd *ast.FuncDecl) bool {
	if envelopeAllowedFuncs[fd.Name.Name] {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	id, ok := t.(*ast.Ident)
	return ok && envelopeAllowedRecvs[id.Name]
}

func checkEnvelopeCall(pass *Pass, call *ast.CallExpr) {
	// http.Error writes a text/plain body — never envelope-shaped.
	if path, name := pass.callee(call); path == "net/http" && name == "Error" {
		pass.Reportf(call, "http.Error writes a plain-text error; use writeError so the /v1 envelope shape holds")
		return
	}
	// w.WriteHeader(status) with a constant error status.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	status, ok := constStatus(pass, call.Args[0])
	if !ok || status < 300 {
		return
	}
	pass.Reportf(call, "WriteHeader(%d) outside the envelope plumbing; route error responses through writeError", status)
}

// constStatus extracts a compile-time constant integer status code.
func constStatus(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}
