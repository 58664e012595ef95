package app

// deferred is a pool of work items an application hands to the MCU:
// each item carries the state one deferred ISR or task needs, plus a
// callback bound to the item once. Acquiring a recycled item and
// passing its callback to the scheduler therefore allocates nothing in
// steady state, where a closure per acquisition used to.
//
// An item returns to the pool after run has processed it. An item
// whose callback never runs — a task the full queue refused (see
// drop), or work a node crash abandoned on the MCU — simply stays out
// of the pool, as the closure it replaces would have been dropped, so
// crashes cannot hand one acquisition's state to another's callback.
type deferred[T any] struct {
	free []*deferredItem[T]
	run  func(*T)
}

type deferredItem[T any] struct {
	val  T
	call func()
}

// get returns a free item, growing the pool when none is free.
func (d *deferred[T]) get() *deferredItem[T] {
	if n := len(d.free); n > 0 {
		it := d.free[n-1]
		d.free = d.free[:n-1]
		return it
	}
	it := &deferredItem[T]{}
	it.call = func() {
		d.run(&it.val)
		d.free = append(d.free, it)
	}
	return it
}

// drop returns an item whose callback will never run (its task was
// refused).
func (d *deferred[T]) drop(it *deferredItem[T]) { d.free = append(d.free, it) }
