// Package deadlinecheck enforces the IOTimeout discipline on connection
// I/O: every read or write on a net.Conn-like value (anything whose method
// set offers SetReadDeadline) must be preceded, in the function that owns
// the connection, by a SetDeadline/SetReadDeadline/SetWriteDeadline call
// on the same connection. A slow or stalled peer must cost a bounded
// amount of server time; an undeadlined frame read parks a goroutine
// forever.
//
// I/O rarely happens on the conn directly — the serving stack funnels
// through wire's FrameDecoder.ReadRequest/ReadResponse and handshake
// helpers, which take io.Reader/io.Writer. The
// analyzer therefore classifies module functions interprocedurally: a
// function performs I/O on a parameter if it calls Read/Write on it, hands
// it to an io/binary primitive (io.ReadFull, io.Copy, ...), or passes it
// to another module function at an I/O-performing parameter, in each case
// without first setting a deadline on it. Call sites that pass a
// connection to such a function are I/O sites themselves.
//
// Responsibility follows ownership: a function doing I/O on its own
// parameter is never flagged — its caller is, if the caller obtained the
// connection (Dial, Accept, a struct field) and neither set a deadline
// nor delegated to a function that does. The check is source-order, not
// path-sensitive: a deadline call anywhere earlier in the owning
// function's body satisfies it, including the conditional
// `if timeout > 0 { conn.SetReadDeadline(...) }` idiom.
//
// Escapes: //cryptolint:nodeadline on the finding's line or on the
// enclosing function's doc comment, each expected to carry a reason (a
// test harness, an in-memory pipe).
package deadlinecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the deadlinecheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "deadlinecheck",
	Doc:  "require net.Conn reads/writes to be preceded by a Set{Read,Write}Deadline in the function owning the connection",
	Run:  run,
}

// ioPrimitives names the io/binary helpers that perform I/O on an argument.
// Maps package path to function name to the argument indices read/written.
var ioPrimitives = map[string]map[string][]int{
	"io": {
		"ReadFull":    {0},
		"ReadAtLeast": {0},
		"Copy":        {0, 1},
		"CopyN":       {0, 1},
		"WriteString": {0},
		"ReadAll":     {0},
	},
	"encoding/binary": {
		"Read":  {0},
		"Write": {0},
	},
}

var deadlineMethods = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

func run(pass *analysis.Pass) error {
	cls := classify(pass.All)
	marks := analysis.CollectLineMarks(pass.Pkg, analysis.MarkerNoDeadline)
	info := pass.Pkg.Info

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || analysis.HasMarker(fd.Doc, analysis.MarkerNoDeadline) {
				continue
			}
			params := paramObjs(info, fd)
			for _, ev := range ioEvents(info, fd.Body, cls) {
				if !isConnLike(info.TypeOf(ev.conn)) {
					continue // io.Reader plumbing: no deadline method to call
				}
				obj := rootObj(info, ev.conn)
				if obj == nil || params[obj] {
					continue // the caller owns the conn and carries the duty
				}
				if deadlineBefore(info, fd.Body, obj, ev.pos) {
					continue
				}
				if marks.Has(analysis.MarkerNoDeadline, ev.pos) {
					continue
				}
				pass.Reportf(ev.pos, "%s on connection without a preceding SetDeadline/SetReadDeadline/SetWriteDeadline (IOTimeout discipline); set one or annotate //cryptolint:nodeadline with a reason", ev.what)
			}
		}
	}
	return nil
}

// event is one I/O operation on a connection-typed expression.
type event struct {
	conn ast.Expr
	pos  token.Pos
	what string
}

// ioEvents collects the I/O operations in body: direct Read/Write method
// calls, io/binary primitives, and calls into module functions classified
// as I/O-performing on the corresponding parameter.
func ioEvents(info *types.Info, body *ast.BlockStmt, cls *classification) []event {
	var evs []event
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn, _ := info.Uses[sel.Sel].(*types.Func); fn != nil {
				if recvOf(fn) != nil && (fn.Name() == "Read" || fn.Name() == "Write") {
					evs = append(evs, event{sel.X, call.Pos(), "direct " + fn.Name()})
					return true
				}
			}
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if byName, ok := ioPrimitives[fn.Pkg().Path()]; ok {
			// No conn-likeness filter here: inside wire's frame readers the stream
			// is a plain io.Reader, and the event must still propagate to the
			// caller holding the conn. Reporting filters by type.
			for _, i := range byName[fn.Name()] {
				if i < len(call.Args) {
					evs = append(evs, event{call.Args[i], call.Pos(), fn.Pkg().Name() + "." + fn.Name()})
				}
			}
			return true
		}
		for _, i := range cls.ioParams[fn] {
			if i < len(call.Args) {
				evs = append(evs, event{call.Args[i], call.Pos(), fn.Name() + " (which reads/writes the connection)"})
			}
		}
		return true
	})
	return evs
}

// classification is the fixed point of "function fn performs undeadlined
// I/O on parameter i" over every source-loaded module function.
type classification struct {
	ioParams map[*types.Func][]int
}

func classify(all []*analysis.Package) *classification {
	type fnBody struct {
		info *types.Info
		decl *ast.FuncDecl
	}
	bodies := make(map[*types.Func]fnBody)
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = fnBody{pkg.Info, fd}
				}
			}
		}
	}

	cls := &classification{ioParams: make(map[*types.Func][]int)}
	has := func(fn *types.Func, i int) bool {
		for _, j := range cls.ioParams[fn] {
			if j == i {
				return true
			}
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		for fn, fb := range bodies {
			if analysis.HasMarker(fb.decl.Doc, analysis.MarkerNoDeadline) {
				continue // sanctioned: callers are off the hook too
			}
			params := paramIndex(fb.info, fb.decl)
			for _, ev := range ioEvents(fb.info, fb.decl.Body, cls) {
				obj := rootObj(fb.info, ev.conn)
				if obj == nil {
					continue
				}
				i, isParam := params[obj]
				if !isParam || i < 0 || has(fn, i) {
					continue // i < 0: the receiver, which no call site passes positionally
				}
				if deadlineBefore(fb.info, fb.decl.Body, obj, ev.pos) {
					continue
				}
				cls.ioParams[fn] = append(cls.ioParams[fn], i)
				changed = true
			}
		}
	}
	return cls
}

// deadlineBefore reports whether body contains a Set*Deadline call on obj
// at a position before pos.
func deadlineBefore(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !deadlineMethods[sel.Sel.Name] {
			return true
		}
		if rootObj(info, sel.X) == obj {
			found = true
		}
		return true
	})
	return found
}

// paramObjs returns the set of fd's parameter (and receiver) objects.
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	set := make(map[types.Object]bool)
	for obj := range paramIndex(info, fd) {
		set[obj] = true
	}
	return set
}

// paramIndex maps fd's parameter objects to their positional index.
// The receiver, if any, is index -1: it counts as caller-owned (paramObjs)
// but has no slot in a call's argument list, so classify never records it
// in ioParams.
func paramIndex(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	idx := make(map[types.Object]int)
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					idx[obj] = -1
				}
			}
		}
	}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					idx[obj] = i
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return idx
}

// rootObj resolves the object an expression names: the identifier's
// object, or a selector's field object (c.conn → the conn field).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// isConnLike reports whether t's method set offers SetReadDeadline —
// net.Conn and every concrete conn satisfy this; plain io.Reader/io.Writer
// plumbing does not.
func isConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "SetReadDeadline")
	_, ok := obj.(*types.Func)
	return ok
}

func recvOf(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
