package obs

import (
	"strings"
	"testing"
	"time"
)

func TestAdmissionStatsRender(t *testing.T) {
	var nilStats *AdmissionStats
	if nilStats.Render() != "" {
		t.Error("nil stats render non-empty")
	}
	plain := &AdmissionStats{RequestedPages: 64, GrantedPages: 64}
	if s := plain.Render(); !strings.Contains(s, "granted 64/64 pages") || strings.Contains(s, "degraded") {
		t.Errorf("plain render = %q", s)
	}
	squeezed := &AdmissionStats{
		RequestedPages: 64,
		GrantedPages:   16,
		Degraded:       true,
		QueueWaitNanos: int64(3 * time.Millisecond),
	}
	s := squeezed.Render()
	for _, want := range []string{"granted 16/64 pages", "(degraded)"} {
		if !strings.Contains(s, want) {
			t.Errorf("render %q lacks %q", s, want)
		}
	}
}

func TestNewRetryTrace(t *testing.T) {
	tr := NewRetryTrace(2, "transient I/O", "retrying the same plan", 750*time.Microsecond)
	if tr.Operator != "Retry after attempt 2" {
		t.Errorf("Operator = %q", tr.Operator)
	}
	for _, want := range []string{"transient I/O", "retrying the same plan", "backed off 750µs"} {
		if !strings.Contains(tr.Reason, want) {
			t.Errorf("reason %q lacks %q", tr.Reason, want)
		}
	}
	if got := NewRetryTrace(1, "c", "r", 0).Reason; strings.Contains(got, "backed off") {
		t.Errorf("zero backoff still rendered: %q", got)
	}
}
