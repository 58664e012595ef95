package tinyos

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/mcu"
	"repro/internal/platform"
	"repro/internal/sim"
)

func newSched(t *testing.T, queueCap int) (*sim.Kernel, *Sched) {
	t.Helper()
	k := sim.NewKernel(1)
	l := energy.NewLedger()
	m := mcu.New(k, platform.IMEC().MCU, l)
	return k, NewSched(k, m, queueCap)
}

func TestPostRunsFIFO(t *testing.T) {
	k, s := newSched(t, 0)
	var order []int
	k.Schedule(0, func(*sim.Kernel) {
		for i := 1; i <= 3; i++ {
			i := i
			if !s.PostFn("t", 100, func() { order = append(order, i) }) {
				t.Errorf("post %d rejected", i)
			}
		}
	})
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Posted() != 3 || s.Dropped() != 0 {
		t.Fatalf("posted=%d dropped=%d", s.Posted(), s.Dropped())
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k, s := newSched(t, 2)
	ran := 0
	k.Schedule(0, func(*sim.Kernel) {
		for i := 0; i < 5; i++ {
			s.PostFn("t", 1000, func() { ran++ })
		}
	})
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (queue cap)", ran)
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
}

func TestQueueDrainsAndRefills(t *testing.T) {
	k, s := newSched(t, 1)
	ran := 0
	k.Schedule(0, func(*sim.Kernel) { s.PostFn("a", 100, func() { ran++ }) })
	k.Schedule(sim.Millisecond, func(*sim.Kernel) { s.PostFn("b", 100, func() { ran++ }) })
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 after drain", ran)
	}
}

// TestCrashAbandonsQueuedTasks pins the task queue across an MCU crash:
// tasks pending at the crash never run and keep their queue entries,
// and a task posted after the reboot runs its own effects, never a
// stale task's.
func TestCrashAbandonsQueuedTasks(t *testing.T) {
	k, s := newSched(t, 3)
	var ran []string
	k.Schedule(0, func(*sim.Kernel) {
		s.PostFn("stale-a", 1000, func() { ran = append(ran, "stale-a") })
		s.PostFn("stale-b", 1000, func() { ran = append(ran, "stale-b") })
	})
	k.Schedule(10*sim.Microsecond, func(*sim.Kernel) {
		s.MCU().Crash()
		s.MCU().Reboot()
	})
	k.Schedule(sim.Millisecond, func(*sim.Kernel) {
		if !s.PostFn("fresh", 1000, func() { ran = append(ran, "fresh") }) {
			t.Error("post into the one free entry rejected")
		}
		if s.PostFn("overflow", 1000, func() { ran = append(ran, "overflow") }) {
			t.Error("abandoned tasks did not keep their queue entries")
		}
	})
	k.Run()
	if len(ran) != 1 || ran[0] != "fresh" {
		t.Fatalf("ran %v, want only the post-reboot task", ran)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d after drain, want the 2 abandoned tasks", got)
	}
}

func TestInterruptBypassesQueueCap(t *testing.T) {
	k, s := newSched(t, 1)
	ran := 0
	k.Schedule(0, func(*sim.Kernel) {
		s.PostFn("task", 100000, nil) // fills the queue
		for i := 0; i < 3; i++ {
			s.Interrupt("isr", 100, func() { ran++ })
		}
	})
	k.Run()
	if ran != 3 {
		t.Fatalf("interrupts ran = %d, want 3", ran)
	}
}

func TestNegativeCyclesPanic(t *testing.T) {
	_, s := newSched(t, 0)
	for _, fn := range []func(){
		func() { s.Post(Task{Name: "bad", Cycles: -1}) },
		func() { s.Interrupt("bad", -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative cycles did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestTimerFiresWithOverhead(t *testing.T) {
	k, s := newSched(t, 0)
	var at []sim.Time
	tm := NewTimer(s, "sample", func() { at = append(at, k.Now()) })
	tm.StartPeriodic(5 * sim.Millisecond)
	k.RunUntil(16 * sim.Millisecond)
	if len(at) != 3 {
		t.Fatalf("fired %d times, want 3", len(at))
	}
	// Callback lands after the ISR overhead (120 cycles = 15us) plus the
	// wakeup ramp, not exactly on the tick.
	if at[0] <= 5*sim.Millisecond {
		t.Fatalf("callback at %v, want after the 5ms tick", at[0])
	}
	if at[0] > 5*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("callback at %v, overhead unexpectedly large", at[0])
	}
	tm.Stop()
	if tm.Running() {
		t.Fatalf("timer running after Stop")
	}
}

func TestTimerOneShotAndRestart(t *testing.T) {
	k, s := newSched(t, 0)
	count := 0
	tm := NewTimer(s, "x", func() { count++ })
	tm.StartOneShot(2 * sim.Millisecond)
	tm.StartOneShot(4 * sim.Millisecond)
	k.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (restart cancels)", count)
	}
}

func TestTimerStartPeriodicAt(t *testing.T) {
	k, s := newSched(t, 0)
	var first sim.Time
	tm := NewTimer(s, "x", func() {
		if first == 0 {
			first = k.Now()
		}
	})
	tm.StartPeriodicAt(7*sim.Millisecond, 10*sim.Millisecond)
	k.RunUntil(8 * sim.Millisecond)
	if first < 7*sim.Millisecond || first > 7*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("first firing at %v, want ~7ms", first)
	}
}

func TestMCUAccessor(t *testing.T) {
	_, s := newSched(t, 0)
	if s.MCU() == nil {
		t.Fatalf("MCU() returned nil")
	}
}

func TestBusyLoadOccupiesMCU(t *testing.T) {
	k, s := newSched(t, 0)
	var doneAt sim.Time
	k.Schedule(0, func(*sim.Kernel) {
		s.BusyLoad("fifo", 3840*sim.Microsecond, func() { doneAt = k.Now() })
	})
	k.Run()
	want := 3840*sim.Microsecond + 6*sim.Microsecond // + wakeup
	if doneAt != want {
		t.Fatalf("BusyLoad done at %v, want %v", doneAt, want)
	}
}

func TestPowerPolicyTable(t *testing.T) {
	cases := []struct {
		gap  sim.Time
		want energy.State
	}{
		{sim.Millisecond, platform.StateMCUPowerSave},
		{4 * sim.Millisecond, platform.StateMCUPowerSave},
		{10 * sim.Millisecond, platform.StateMCULPM2},
		{100 * sim.Millisecond, platform.StateMCULPM3},
		{2 * sim.Second, platform.StateMCULPM4},
	}
	for _, c := range cases {
		if got := PowerPolicy(c.gap); got != c.want {
			t.Errorf("PowerPolicy(%v) = %v, want %v", c.gap, got, c.want)
		}
	}
}

func TestPaperWorkloadsUseFirstPowerSaveMode(t *testing.T) {
	// The paper: inter-event gaps of its applications are a few ms, so
	// the scheduler only ever selects the first low-power mode. The
	// densest workload is 205 Hz sampling (4.9 ms gaps).
	gap := sim.Second / 205
	if got := PowerPolicy(gap); got != platform.StateMCUPowerSave {
		t.Fatalf("policy for 205Hz gap = %v, want power-save", got)
	}
}
