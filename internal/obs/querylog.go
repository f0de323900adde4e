package obs

// DefaultQueryLogCap is the number of run records the registry's
// recent-query ring buffer retains.
const DefaultQueryLogCap = 256

// DefaultTraceLogCap bounds the trace ring. Traces are an order of
// magnitude heavier than run records (a whole span tree each), so the
// ring is correspondingly smaller.
const DefaultTraceLogCap = 64

// ring is a fixed-capacity ring buffer, the backing store of /queries
// (run records) and /traces (span trees), guarded by the registry's lock.
// The capacity is cap(buf), set by the owner; appends overwrite the oldest
// entry once the buffer is full, so a long soak holds memory constant.
type ring[T any] struct {
	buf  []T
	next int
}

func (l *ring[T]) push(v T) {
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, v)
	} else {
		l.buf[l.next] = v
		l.next = (l.next + 1) % len(l.buf)
	}
}

// recent returns the retained entries oldest-first, at most max entries
// from the newest end (all when max ≤ 0).
func (l *ring[T]) recent(max int) []T {
	n := len(l.buf)
	out := make([]T, 0, n)
	// Oldest entry sits at l.next once the ring has wrapped.
	for i := 0; i < n; i++ {
		out = append(out, l.buf[(l.next+i)%n])
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}
