package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Kind: spanOp, Parent: -1, Start: 0, End: 100},
		{Kind: spanBegin, Parent: 0, Start: 10, End: 30},
		{Kind: spanDoRemote, Parent: 0, Start: 20, End: 50}, // overlaps the previous child
		{Kind: spanEnd, Parent: 0, Start: 60, End: 120},     // runs past the parent
		{Kind: spanHandler, Parent: 2, Start: 25, End: 35},  // grandchild: counts against its own parent only
		{Kind: spanHandler, Parent: 2, Start: 30, End: 45},  // hedged twin, overlapping
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [60,100] of the op: 80 of 100.
	want := []int64{20, 20, 10, 60, 10, 15}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestAttachHandlersFindsTheOpenCall(t *testing.T) {
	epoch := time.Now()
	rec := newRecorder(epoch)
	rec.spans = []span{
		{Kind: spanOp, Parent: -1, Op: 7, Start: 0, End: 100},
		{Kind: spanDoLocal, Parent: 0, Op: 7, Start: 10, End: 20},
		{Kind: spanDoRemote, Parent: 0, Op: 7, Start: 30, End: 90},
	}
	h := &handlerLog{epoch: epoch, recs: []span{
		{Kind: spanHandler, Op: 7, Start: 40, End: 50},
		{Kind: spanHandler, Op: 7, Start: 12, End: 15},
		{Kind: spanHandler, Op: 99, Start: 40, End: 50}, // no such operation: dropped
	}}
	attachHandlers([]*recorder{rec}, h)
	if len(rec.spans) != 5 {
		t.Fatalf("recorder holds %d spans, want 5", len(rec.spans))
	}
	if got := rec.spans[3].Parent; got != 2 {
		t.Errorf("handler started at 40 attached to span %d, want the do_remote span 2", got)
	}
	if got := rec.spans[4].Parent; got != 1 {
		t.Errorf("handler started at 12 attached to span %d, want the do_local span 1", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.start(spanOp, 1, -1); id != -1 {
		t.Errorf("nil recorder start = %d, want -1", id)
	}
	rec.end(-1) // must not panic
	var h *handlerLog
	h.record(1, time.Now())
}
