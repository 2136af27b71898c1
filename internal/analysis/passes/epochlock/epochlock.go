// Package epochlock machine-checks the sharded backends' locking
// discipline: a struct field annotated //freq:guardedBy(mu) may only be
// touched while the sibling mutex is held, and mutating method calls
// listed in a //freq:epoch(epoch, M1 M2 ...) annotation must bump the
// sibling write-epoch counter inside the same locked region. The epoch
// bump is what keeps the epoch-cached merged views honest: a mutation
// that forgets it leaves stale snapshots being served as fresh.
//
// Holding is established lexically — a preceding base.mu.Lock() with no
// intervening base.mu.Unlock() in the same function body (deferred
// unlocks keep the region open) — or contractually, by annotating the
// enclosing function //freq:locked(mu), in which case every call site
// of that function is checked for the same discipline (the call-graph
// half of the analysis).
package epochlock

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "epochlock",
	Doc:  "//freq:guardedBy fields are only touched under their mutex; annotated mutators bump the write epoch in the same locked region",
	Run:  run,
}

// guardInfo is one parsed field contract.
type guardInfo struct {
	mutex  string
	epoch  string
	writes map[string]bool
}

func run(pass *analysis.Pass) error {
	guarded := collectGuards(pass)
	locked := collectLocked(pass)
	if len(guarded) == 0 && len(locked) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd, fd.Body, guarded, locked)
			// Each function literal is its own lexical region: a closure
			// runs on its own schedule, so locks held where it was created
			// prove nothing about when its body executes.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, nil, fl.Body, guarded, locked)
				}
				return true
			})
		}
	}
	return nil
}

// collectGuards finds //freq:guardedBy (+ optional //freq:epoch) struct
// field annotations and keys them by the field's object.
func collectGuards(pass *analysis.Pass) map[types.Object]guardInfo {
	guarded := map[types.Object]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				g, ok := analysis.FieldDirective(field, "guardedBy")
				if !ok {
					continue
				}
				gi := guardInfo{writes: map[string]bool{}}
				if len(g.Args) != 1 {
					pass.Reportf(g.Pos, "malformed //freq:guardedBy: want one mutex field name")
					continue
				}
				gi.mutex = g.Args[0]
				if e, ok := analysis.FieldDirective(field, "epoch"); ok {
					if len(e.Args) < 2 {
						pass.Reportf(e.Pos, "malformed //freq:epoch: want (counterField, M1 M2 ...)")
						continue
					}
					gi.epoch = e.Args[0]
					for _, arg := range e.Args[1:] {
						for _, m := range strings.Fields(arg) {
							gi.writes[m] = true
						}
					}
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = gi
					}
				}
			}
			return true
		})
	}
	return guarded
}

// collectLocked finds //freq:locked(mu) function annotations.
func collectLocked(pass *analysis.Pass) map[*types.Func]string {
	locked := map[*types.Func]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d, ok := analysis.FuncDirective(fd, "locked")
			if !ok {
				continue
			}
			if len(d.Args) != 1 {
				pass.Reportf(d.Pos, "malformed //freq:locked: want one mutex field name")
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				locked[fn] = d.Args[0]
			}
		}
	}
	return locked
}

// eventKind classifies the lock-protocol calls a region is scanned for.
type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evDeferredUnlock
	evEpochAdd
)

type event struct {
	kind eventKind
	base string // printed selector path, e.g. "sh.mu" or "sh.epoch"
	pos  token.Pos
}

// access is one use of a guarded field within a body.
type access struct {
	sel    *ast.SelectorExpr
	gi     guardInfo
	method string // method called through the field, "" for plain use
	pos    token.Pos
}

// lockedCall is a call to a //freq:locked function within a body.
type lockedCall struct {
	call  *ast.CallExpr
	fn    *types.Func
	mutex string
	base  string // printed receiver path, "" when unresolvable
}

// checkBody verifies one lexical region. fd is non-nil only for the
// top-level declaration body, where a //freq:locked annotation on the
// declaration exempts receiver-based accesses.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, body *ast.BlockStmt, guarded map[types.Object]guardInfo, locked map[*types.Func]string) {
	var (
		events      []event
		accesses    []access
		lockedCalls []lockedCall
	)
	deferred := map[*ast.CallExpr]bool{}
	consumed := map[*ast.SelectorExpr]bool{}
	info := pass.TypesInfo

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false // analyzed as its own region
			}
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Lock-protocol events.
			switch sel.Sel.Name {
			case "Lock":
				events = append(events, event{evLock, types.ExprString(sel.X), n.Pos()})
			case "Unlock":
				kind := evUnlock
				if deferred[n] {
					kind = evDeferredUnlock
				}
				events = append(events, event{kind, types.ExprString(sel.X), n.Pos()})
			case "Add":
				events = append(events, event{evEpochAdd, types.ExprString(sel.X), n.Pos()})
			}
			// Method call through a guarded field: sh.s.Update(...).
			if inner, ok := sel.X.(*ast.SelectorExpr); ok {
				if gi, ok := guardedField(info, guarded, inner); ok {
					consumed[inner] = true
					accesses = append(accesses, access{sel: inner, gi: gi, method: sel.Sel.Name, pos: n.Pos()})
				}
			}
			// Call of a //freq:locked function. A method of a generic
			// type resolves to an instantiated Func; its Origin is the
			// annotated declaration.
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				if mu, ok := locked[fn.Origin()]; ok {
					lockedCalls = append(lockedCalls, lockedCall{call: n, fn: fn, mutex: mu, base: types.ExprString(sel.X)})
				}
			}
		case *ast.SelectorExpr:
			if consumed[n] {
				return true
			}
			if gi, ok := guardedField(info, guarded, n); ok {
				consumed[n] = true
				accesses = append(accesses, access{sel: n, gi: gi, pos: n.Pos()})
			}
		}
		return true
	})

	// The declaration-level //freq:locked contract: receiver-rooted
	// accesses whose guard is the annotated mutex are the caller's
	// responsibility (and checked at every call site below).
	recvName, exemptMutex := "", ""
	if fd != nil {
		if d, ok := analysis.FuncDirective(fd, "locked"); ok && len(d.Args) == 1 {
			exemptMutex = d.Args[0]
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				recvName = fd.Recv.List[0].Names[0].Name
			}
		}
	}

	for _, a := range accesses {
		base := types.ExprString(a.sel.X)
		mutexPath := base + "." + a.gi.mutex
		if exemptMutex == a.gi.mutex && base == recvName {
			continue
		}
		lockPos, regionEnd, held := heldAt(events, mutexPath, a.pos)
		if !held {
			pass.Reportf(a.pos, "access to guarded field %s without holding %s (lock it, or annotate the function //freq:locked(%s))",
				types.ExprString(a.sel), mutexPath, a.gi.mutex)
			continue
		}
		if a.method != "" && a.gi.writes[a.method] {
			epochPath := base + "." + a.gi.epoch
			if !epochBumped(events, epochPath, lockPos, regionEnd) {
				pass.Reportf(a.pos, "mutation %s.%s under %s does not bump %s.Add(1) in the same locked region (stale epoch-cached views)",
					types.ExprString(a.sel), a.method, mutexPath, epochPath)
			}
		}
	}

	for _, lc := range lockedCalls {
		if lc.fn.Name() == funcName(fd) && fd != nil {
			continue // recursion: the contract holds by induction
		}
		mutexPath := lc.base + "." + lc.mutex
		if exemptMutex == lc.mutex && lc.base == recvName {
			continue
		}
		if _, _, held := heldAt(events, mutexPath, lc.call.Pos()); !held {
			pass.Reportf(lc.call.Pos(), "call to //freq:locked(%s) function %s without holding %s",
				lc.mutex, lc.fn.Name(), mutexPath)
		}
	}
}

func funcName(fd *ast.FuncDecl) string {
	if fd == nil {
		return ""
	}
	return fd.Name.Name
}

// guardedField resolves a selector to a guarded field contract. A
// field of a generic type whose type mentions a type parameter resolves
// to an instantiated Var; its Origin is the annotated declaration.
func guardedField(info *types.Info, guarded map[types.Object]guardInfo, sel *ast.SelectorExpr) (guardInfo, bool) {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		gi, ok := guarded[s.Obj().(*types.Var).Origin()]
		return gi, ok
	}
	if obj := info.Uses[sel.Sel]; obj != nil {
		gi, ok := guarded[obj]
		return gi, ok
	}
	return guardInfo{}, false
}

// heldAt reports whether the mutex named by path is lexically held at
// pos: a preceding Lock with no intervening non-deferred Unlock. It
// returns the opening Lock position and the region's end (the first
// non-deferred Unlock after the Lock, or the end of the body).
func heldAt(events []event, path string, pos token.Pos) (lockPos, regionEnd token.Pos, held bool) {
	lockPos = token.NoPos
	for _, e := range events {
		if e.base != path || e.pos >= pos {
			continue
		}
		switch e.kind {
		case evLock:
			if e.pos > lockPos {
				lockPos = e.pos
			}
		}
	}
	if !lockPos.IsValid() {
		return token.NoPos, token.NoPos, false
	}
	regionEnd = token.Pos(math.MaxInt)
	for _, e := range events {
		if e.base != path || e.kind != evUnlock {
			continue
		}
		if e.pos > lockPos && e.pos < pos {
			return token.NoPos, token.NoPos, false // released before use
		}
		if e.pos >= pos && e.pos < regionEnd {
			regionEnd = e.pos
		}
	}
	return lockPos, regionEnd, true
}

// epochBumped reports whether an Add call on the epoch path occurs
// inside the locked region.
func epochBumped(events []event, path string, lockPos, regionEnd token.Pos) bool {
	for _, e := range events {
		if e.kind == evEpochAdd && e.base == path && e.pos > lockPos && e.pos < regionEnd {
			return true
		}
	}
	return false
}
