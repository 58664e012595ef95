package sim

import (
	"math/rand"
	"testing"
)

// TestPoolBalancesAfterRun drives a workload through schedule, cancel,
// reschedule and spill paths, then checks that pool accounting closes:
// every allocated slot was recycled, nothing stays in use once the
// queue drains, and the pool reached steady state (capacity bounded by
// peak concurrency, not by total event count).
func TestPoolBalancesAfterRun(t *testing.T) {
	k := NewKernel(0)
	rng := rand.New(rand.NewSource(99))
	fired, cancelled := 0, 0
	var pendingIDs []EventID
	var h Handler
	h = func(kk *Kernel) {
		fired++
		if fired < 20000 {
			pendingIDs = append(pendingIDs, kk.Schedule(Time(rng.Intn(1000000)), h))
			if rng.Intn(4) == 0 {
				// Far-future entry through the spill, sometimes cancelled.
				id := kk.Schedule(5*60*Minute+Time(rng.Intn(1000)), h)
				if rng.Intn(2) == 0 {
					if kk.Cancel(id) {
						cancelled++
					}
				}
			}
		}
		if len(pendingIDs) > 4 && rng.Intn(3) == 0 {
			i := rng.Intn(len(pendingIDs))
			if kk.Cancel(pendingIDs[i]) {
				cancelled++
			}
			pendingIDs = append(pendingIDs[:i], pendingIDs[i+1:]...)
		}
	}
	for i := 0; i < 50; i++ {
		k.Schedule(Time(i), h)
	}
	k.Run()

	st := k.PoolStats()
	if st.Allocated != st.Recycled {
		t.Fatalf("pool leak: allocated %d, recycled %d", st.Allocated, st.Recycled)
	}
	if st.InUse != 0 {
		t.Fatalf("pool holds %d slots after drain", st.InUse)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending %d after drain", k.Pending())
	}
	if st.Allocated != k.Executed()+uint64(cancelled) {
		t.Fatalf("accounting mismatch: allocated %d, executed %d + cancelled %d",
			st.Allocated, k.Executed(), cancelled)
	}
	if st.Capacity > 10000 {
		t.Fatalf("pool capacity %d not bounded by peak concurrency", st.Capacity)
	}
	if fired < 20000 {
		t.Fatalf("workload underran: fired %d", fired)
	}
}

// TestPoolReusesSlots checks the free list actually recycles: a
// steady-state schedule/fire loop must not grow the pool.
func TestPoolReusesSlots(t *testing.T) {
	k := NewKernel(0)
	var h Handler
	n := 0
	h = func(kk *Kernel) {
		n++
		if n < 1000 {
			kk.Schedule(100, h)
		}
	}
	k.Schedule(0, h)
	k.Run()
	st := k.PoolStats()
	if st.Capacity > 4 {
		t.Fatalf("steady-state loop grew the pool to %d slots", st.Capacity)
	}
	if st.Allocated != 1000 || st.Recycled != 1000 {
		t.Fatalf("allocated %d recycled %d, want 1000/1000", st.Allocated, st.Recycled)
	}
}

// TestPoolZeroesOnRecycle verifies the recycled slot carries nothing
// into its next life: no handler reference in either form, no arg, no
// stale list links, and a bumped generation so the old EventID is dead.
func TestPoolZeroesOnRecycle(t *testing.T) {
	k := NewKernel(0)
	w := &k.wheel
	check := func(form string, id EventID) {
		t.Helper()
		e := &w.events[int32(id>>32)-1]
		if e.handler != nil || e.fn != nil || e.arg != 0 || e.at != 0 || e.seq != 0 ||
			e.loc != locFree || e.prev != -1 {
			t.Fatalf("%s: recycled slot not zeroed: %+v", form, *e)
		}
		if e.gen == uint32(id) {
			t.Fatalf("%s: generation not bumped on recycle", form)
		}
	}
	id := k.Schedule(5, func(*Kernel) {})
	if !k.Cancel(id) {
		t.Fatal("cancel failed")
	}
	check("cancelled closure event", id)

	fn := func(*Kernel, uint64) {}
	id = k.ScheduleArg(5, fn, 0xfeed)
	if !k.Cancel(id) {
		t.Fatal("cancel failed")
	}
	check("cancelled arg event", id)

	id = k.ScheduleArg(7, fn, 0xbeef)
	k.Run()
	check("fired arg event", id)
}
