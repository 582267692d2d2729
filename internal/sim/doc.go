package sim

// This file documents the simulation model's load-bearing choices; the
// implementation lives in kernel.go (virtual-time executor), resources.go
// (CPU bank, disk, lock), model.go (the DBMS protocol and costs) and
// partitioned.go (the hash-partitioned policy of the distributed-lock
// design).
//
// # One commit round
//
// Accesses reach the policy in one place, simWorker.round — the model's one
// lock-holding period, with the reasons and the apply order of
// core.Session.round: prefetch charge, (flat combining: publish,) acquire,
// the worker's own published batch, its queue, the miss's admit, every
// other worker's slot, release, one accounting site. Each cost constant of
// the lock path is charged there and nowhere else. Direct, the paper's
// TryLock protocol, flat combining, the shared queue, the adaptive
// threshold and distributed locks are schedulers over it: they decide which
// lock and which batch a round gets, and what happens when its one try
// finds the lock busy. DESIGN.md §4 ("One commit round, three schedulers")
// has the argument; EXPERIMENTS.md lists where the model and the wrapper
// differ on purpose.
//
// # Scheduling model
//
// Workers (backend threads) outnumber processors two to one, as in the
// paper's overcommitted configuration. A runnable worker occupies a
// processor until its scheduler quantum (Params.TimeSlice, default 3 ms)
// expires, it blocks on the replacement lock, or it starts disk I/O; it
// then re-queues FIFO. Quantum scheduling is what makes single-processor
// runs nearly contention-free (a thread performs thousands of accesses per
// slice, so it practically never loses the CPU inside the tiny critical
// section), matching the paper's observation that 1-CPU contention is too
// small to plot.
//
// Critical sections are modelled as non-preemptible: a quantum that
// expires mid-CS takes effect at the next preemptible step. A strict FIFO
// run queue would otherwise park a lock holder behind up to
// (workers−procs) full quanta, manufacturing convoys that priority boosts
// prevent in real schedulers.
//
// # Lock model
//
// The replacement lock is exclusive with FIFO waiters and *barging*
// try-acquisition: TryLock takes a free lock even when waiters are parked,
// like a real futex/spinlock trylock. Barging is essential — it is what
// lets BP-Wrapper's TryLock protocol drain batches opportunistically
// instead of joining the convoy.
//
// A blocked acquirer gives up its processor while parked. When a release
// wakes it, it first reacquires a processor (paying Params.CtxSwitch
// dispatch latency) and only then competes for the lock again, possibly
// losing to a barger and re-parking. Granting the lock before the thread
// has a CPU would book scheduling delay as lock-hold time; an earlier
// revision of this model did exactly that and produced metastable convoys
// with 97% apparent lock utilization.
//
// # Prefetching model
//
// The prefetch pass costs Params.PrefetchWork outside the lock and records
// the lock's acquisition version. If no other acquisition intervened by
// the time the lock is granted, the critical section's cache-warm-up cost
// (Params.LockWarmup) is waived; otherwise another processor has dirtied
// the protected data and the lines must be assumed invalidated, so the
// full warm-up is paid. This mechanism yields the paper's observed
// behaviour without special-casing: prefetching helps at low processor
// counts and fades exactly as acquisition frequency grows (Section IV-D's
// explanation).
//
// # Work jitter
//
// Per-access transaction work is UserWork ±25% from a per-worker
// deterministic xorshift. Identical per-access costs phase-lock the
// workers into synchronized lock arrivals — an artifact of determinism
// that timing noise prevents on real hardware.
//
// # What is real and what is virtual
//
// The replacement policies (package replacer) and workload streams
// (package workload) are the real implementations; every Contains/Hit/
// Admit decision, and therefore every hit ratio and victim choice, is
// exact. Only time is virtual: operation costs are charged from Params
// instead of being measured. Determinism: the same Config always produces
// the identical Result.
