//go:build go1.23

package sim

import "iter"

// start turns a closure thread into a coroutine: t.next switches into
// it and runs the closure up to its next yield (see suspend), t.stop
// ends it early. The build constraint lets this one file use iter
// (go1.23) while go.mod stays at go 1.22; see README "Building".
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if p := recover(); p != nil && p != errStopped {
				panic(p)
			}
		}()
		t.fn(t)
	})
}
