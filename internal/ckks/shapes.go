// The shape cache holds its entries through weak pointers and removes them
// with runtime.AddCleanup, both new in Go 1.24; go.mod declares an older
// language version, so this file states its own.

//go:build go1.24

package ckks

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// shapeCache canonicalises compiled shapes: one per distinct literal (Seed
// aside) among the shapes some live Parameters still reference. Entries hold
// their shape weakly, so the cache never keeps one alive, and a cleanup
// deletes an entry once its shape is collected: the cache is bounded by the
// live parameter sets, with no capacity to tune. Concurrent first requests
// for one literal wait for a single compile.
var shapeCache = struct {
	sync.Mutex
	m map[string]*shapeEntry
}{m: map[string]*shapeEntry{}}

// shapeEntry is one literal's compile: ready closes once shape or err is set.
type shapeEntry struct {
	ready chan struct{}
	shape weak.Pointer[shape]
	err   error
}

// shapeCompiles counts compileShape calls.
var shapeCompiles atomic.Int64

// ShapeCompiles reports how many parameter shapes this process has compiled
// (NewParameters calls that found no live shape to share). Intended for tests
// and diagnostics.
func ShapeCompiles() int64 { return shapeCompiles.Load() }

// shapeKey identifies a validated literal's shape: every field but Seed.
func shapeKey(lit ParametersLiteral) string {
	lit.Seed = 0
	return fmt.Sprintf("%+v", lit)
}

// sharedShape returns the live shape of lit, compiling it if there is none.
func sharedShape(lit ParametersLiteral) (*shape, error) {
	key := shapeKey(lit)
	for {
		shapeCache.Lock()
		e, found := shapeCache.m[key]
		if !found {
			e = &shapeEntry{ready: make(chan struct{})}
			shapeCache.m[key] = e
		}
		shapeCache.Unlock()
		if !found {
			return e.fill(key, lit)
		}
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		if s := e.shape.Value(); s != nil {
			return s, nil
		}
		// Collected, and its cleanup has not run yet: compile afresh.
		dropShape(key, e)
	}
}

// fill compiles the entry's shape and publishes it. A failed compile leaves
// no entry behind, so the next request tries again.
func (e *shapeEntry) fill(key string, lit ParametersLiteral) (*shape, error) {
	defer close(e.ready)
	s, err := compileShape(lit)
	if err != nil {
		e.err = err
		dropShape(key, e)
		return nil, err
	}
	e.shape = weak.Make(s)
	runtime.AddCleanup(s, func(e *shapeEntry) { dropShape(key, e) }, e)
	return s, nil
}

// dropShape deletes key's entry if it is still e.
func dropShape(key string, e *shapeEntry) {
	shapeCache.Lock()
	if shapeCache.m[key] == e {
		delete(shapeCache.m, key)
	}
	shapeCache.Unlock()
}
