// Package netsim is a deterministic, packet-level discrete-event network
// simulator. Nodes (routers and hosts) exchange real serialized IPv4
// datagrams over point-to-point links with configurable delays; routers
// perform longest-prefix-match forwarding, decrement TTL, generate ICMP
// errors with quoted headers, process IP options on a simulated slow path
// behind a token-bucket rate limiter, and stamp Record Route options.
//
// The simulator runs on a virtual clock: time advances only when the
// event queue is drained, so experiments that take minutes of simulated
// wall-clock time (e.g. probing at a fixed packets-per-second rate)
// complete in milliseconds and are exactly reproducible.
package netsim

import (
	"time"
)

// event is the payload of a scheduled occurrence: either a callback
// (fn != nil) or a packet delivery (pkt/dst set). Packet deliveries are
// a dedicated event kind so the per-packet hot path schedules no closure
// and the engine can recycle the buffer once the receiver returns
// without having handed it on.
// Payloads live in the engine's slab (see Engine), not in the heap
// array.
type event struct {
	fn  func()
	pkt []byte
	dst *Iface
}

// heapEntry is one slot of the scheduling heap: the (at, seq) ordering
// key plus the slab index of the event payload. Splitting key from
// payload matters twice over on shard fleets: sift swaps move 24-byte
// pointer-free entries instead of 56-byte events (queue depths reach
// tens of thousands, and sift moves dominated the Figure 1 CPU
// profile), and because heapEntry contains no pointers the GC never
// scans the heap array at all — with K replica engines alive, K queues'
// worth of scan work used to multiply into every GC cycle.
type heapEntry struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal timestamps: determinism
	idx int32  // payload slot in Engine.slab
}

// Engine is the discrete-event scheduler. It is not safe for concurrent
// use; the whole simulation is single-threaded and deterministic.
//
// Event payloads are arena-backed: they live in a per-engine slab whose
// slots are recycled through a free list, so scheduling allocates no
// per-event objects and a fleet of K engines keeps K slabs — a handful
// of large, mostly-stable heap objects — instead of K growing
// populations of small ones for the GC to trace.
type Engine struct {
	pq   []heapEntry // d-ary min-heap ordered by (at, seq); pointer-free
	slab []event     // event payload arena, indexed by heapEntry.idx
	free []int32     // recycled slab slots
	now  time.Duration
	seq  uint64
	nRun uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// alloc places an event payload into the slab and returns its slot.
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[idx] = ev
		return idx
	}
	e.slab = append(e.slab, ev)
	return int32(len(e.slab) - 1)
}

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. Events scheduled for the same instant run in
// scheduling order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.push(heapEntry{at: e.now + d, seq: e.seq, idx: e.alloc(event{fn: fn})})
}

// scheduleDelivery enqueues a packet delivery to dst after delay d,
// ordered exactly like Schedule. The engine owns pkt until delivery and
// returns it to the owning network's buffer pool afterwards, unless the
// receiver handed it on (Node.Receive).
func (e *Engine) scheduleDelivery(d time.Duration, pkt []byte, dst *Iface) {
	if d < 0 {
		d = 0
	}
	e.seq++
	e.push(heapEntry{at: e.now + d, seq: e.seq, idx: e.alloc(event{pkt: pkt, dst: dst})})
}

// At runs fn at absolute virtual time t (or now, if t is in the past).
func (e *Engine) At(t time.Duration, fn func()) {
	e.Schedule(t-e.now, fn)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.pq) > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d more of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

func (e *Engine) step() {
	top := e.pop()
	if top.at > e.now {
		e.now = top.at
	}
	e.nRun++
	ev := e.slab[top.idx]
	e.slab[top.idx] = event{} // release buffer/closure references
	e.free = append(e.free, top.idx)
	if ev.fn != nil {
		ev.fn()
		return
	}
	dst := ev.dst
	if !dst.Owner.Receive(ev.pkt, dst) {
		dst.net.putBuf(ev.pkt)
	}
}

// The heap is hand-rolled rather than container/heap: the interface
// indirection there boxes one entry per Push/Pop, which dominates
// allocation in packet-heavy runs. It is 4-ary rather than binary —
// batch campaigns pre-schedule every paced send, so the queue holds tens
// of thousands of entries and the halved depth cuts the struct moves
// that dominate sift costs. Entries carry only (at, seq, slab index),
// so comparisons never chase a pointer and swaps stay small.

func (e *Engine) less(i, j int) bool {
	if e.pq[i].at != e.pq[j].at {
		return e.pq[i].at < e.pq[j].at
	}
	return e.pq[i].seq < e.pq[j].seq
}

func (e *Engine) push(ent heapEntry) {
	e.pq = append(e.pq, ent)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(i, parent) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

func (e *Engine) pop() heapEntry {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq = e.pq[:n]
	i := 0
	for {
		smallest := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if e.less(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		e.pq[i], e.pq[smallest] = e.pq[smallest], e.pq[i]
		i = smallest
	}
	return top
}
