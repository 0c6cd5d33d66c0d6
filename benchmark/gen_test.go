package main

import "testing"

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, workload := range workloadNames {
		a, b := inputHash(workload, 42), inputHash(workload, 42)
		if a != b {
			t.Errorf("%s: seed 42 gave input-stream hashes %x and %x", workload, a, b)
		}
		if c := inputHash(workload, 43); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same input-stream hash %x", workload, a)
		}
	}
}

func TestSimTapeMixAndRanges(t *testing.T) {
	tape := genSimTape(7)
	var kinds [3]int
	for _, op := range tape.ops {
		kinds[op.kind]++
		switch op.kind {
		case simTranslate:
			if op.value < 3 || op.value > simMaxWords {
				t.Fatalf("sentence of %v words is outside the trained range", op.value)
			}
		case simRecognize:
			if op.value < 1 || op.value > 3 {
				t.Fatalf("utterance of %v s is outside the trained range", op.value)
			}
		}
	}
	n := float64(len(tape.ops))
	for kind, want := range []float64{0.6, 0.2, 0.2} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d is %.3f of the tape, want %.1f", kind, got, want)
		}
	}
}

func TestLiveInputChecksumCoversTheBody(t *testing.T) {
	in := genLiveInputs(3, 64)[0]
	if bodySum(in.req) != in.sum {
		t.Fatal("generated checksum does not match the request")
	}
	in.req[40] ^= 1
	if bodySum(in.req) == in.sum {
		t.Error("flipping a body bit left the checksum unchanged")
	}
}
