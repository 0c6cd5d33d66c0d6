package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"spectra/internal/workload"
)

// The input generator. Everything a workload feeds the program comes from
// here and from -seed alone; the program sees only the generated inputs.

// Request layout shared by the live workloads: an 8-byte operation sequence
// number (written per call), an 8-byte input index, then the seeded body.
const (
	reqSeqOff  = 0
	reqIdxOff  = 8
	reqBodyOff = 16
)

// liveInput is one generated request and the checksum the service must
// return for it.
type liveInput struct {
	req []byte
	sum uint64
}

// liveInputCount is how many distinct requests a live workload cycles
// through: enough that no buffer is reused while an abandoned hedge could
// still reference it, few enough to stay cache-resident like a real caller's
// working set.
const liveInputCount = 16

func genLiveInputs(seed uint64, size int) []liveInput {
	rng := workload.NewRNG(seed)
	inputs := make([]liveInput, liveInputCount)
	for i := range inputs {
		req := make([]byte, size)
		binary.BigEndian.PutUint64(req[reqIdxOff:], uint64(i))
		for off := reqBodyOff; off < size; off += 8 {
			binary.LittleEndian.PutUint64(req[off:], rng.Uint64())
		}
		inputs[i] = liveInput{req: req, sum: bodySum(req)}
	}
	return inputs
}

// bodySum is the word-wise checksum the service computes over everything
// after the sequence number. It is cheap on purpose (a few µs at 64 KiB) so
// verification does not become the workload.
func bodySum(req []byte) uint64 {
	var sum uint64
	body := req[reqIdxOff:]
	for len(body) >= 8 {
		sum = sum<<1 | sum>>63
		sum ^= binary.LittleEndian.Uint64(body)
		body = body[8:]
	}
	return sum
}

// Simulated-workload operation kinds.
const (
	simTranslate uint8 = iota
	simRecognize
	simCompile
)

// simOp is one generated application request.
type simOp struct {
	kind  uint8
	value float64 // words (translate), seconds (recognize), unused (compile)
	large bool    // compile: the 123-page document, else the 14-page one
	edit  bool    // compile: the user edited the main input first
}

// simScene is one whole environment of the two testbeds: competing
// processes per machine, halvings of each link's bandwidth, and one file
// falling out of a cache.
type simScene struct {
	background [5]int // 560X, server A, server B, Itsy, T20
	bandwidth  [3]int // wireless A, wireless B, serial: rate = base >> level
	evict      int    // 0 none, 1 EBMT corpus on B, 2 glossary on A, 3 full LM on the Itsy
}

const (
	simSceneCount = 16
	// simSceneOps operations run in a scene before the next one is applied,
	// so the best alternative keeps moving.
	simSceneOps = 250
	// simSceneSeed fixes the scenes themselves: they are part of the
	// workload's definition, the same for every run. A run's seed only
	// orders them, so every run (and, at ≈ 4 000 operations a cycle, every
	// slice of a run) spends the same share of its operations in each
	// environment and runs at different seeds measure the same thing.
	simSceneSeed = 0x5ce9e5
)

func simScenes() []simScene {
	rng := workload.NewRNG(simSceneSeed)
	level := func() int {
		switch u := rng.Float64(); {
		case u < 0.6:
			return 0
		case u < 0.85:
			return 1
		default:
			return 2
		}
	}
	scenes := make([]simScene, simSceneCount) // scene 0 is the unloaded baseline
	for i := 1; i < len(scenes); i++ {
		sc := &scenes[i]
		for m := range sc.background {
			sc.background[m] = level()
		}
		for l := range sc.bandwidth {
			sc.bandwidth[l] = level()
		}
		sc.evict = rng.Intn(4)
	}
	return scenes
}

// simTape is the generated request stream and scene order, cycled if a run
// outlasts it.
type simTape struct {
	ops    []simOp
	scenes []uint8 // scenes[k] is in force for operations k·simSceneOps onward
}

const simTapeOps = 1 << 16

// Sentence lengths follow workload.Sentences (2 + Zipf over maxWords−2,
// exponent 1.1) with the CDF tabulated once; the training set covers 4–34
// words, so the tape stays inside it.
const (
	simMaxWords     = 34
	simZipfExponent = 1.1
	simEditProb     = 0.3
)

func genSimTape(seed uint64) *simTape {
	rng := workload.NewRNG(seed)
	cdf := zipfCDF(simMaxWords-2, simZipfExponent)
	t := &simTape{ops: make([]simOp, simTapeOps)}
	// The 60/20/20 mix of translate, recognize, compile, exact in every
	// five operations and in seeded order within them, so the share of each
	// application does not wander from seed to seed.
	block := [5]uint8{simTranslate, simTranslate, simTranslate, simRecognize, simCompile}
	for i := range t.ops {
		if i%len(block) == 0 {
			for k := len(block) - 1; k > 0; k-- {
				j := rng.Intn(k + 1)
				block[k], block[j] = block[j], block[k]
			}
		}
		switch block[i%len(block)] {
		case simTranslate:
			t.ops[i] = simOp{kind: simTranslate, value: float64(2 + sampleCDF(cdf, rng.Float64()))}
		case simRecognize:
			t.ops[i] = simOp{kind: simRecognize, value: math.Round((1+2*rng.Float64())*10) / 10}
		default:
			t.ops[i] = simOp{kind: simCompile, large: rng.Float64() < 0.5, edit: rng.Float64() < simEditProb}
		}
	}
	// The scene order: one seeded permutation of all scenes after another.
	for len(t.scenes) < simTapeOps/simSceneOps+1 {
		perm := make([]uint8, simSceneCount)
		for i := range perm {
			perm[i] = uint8(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		t.scenes = append(t.scenes, perm...)
	}
	return t
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		cdf[k-1] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return cdf
}

// sampleCDF returns the 1-based rank whose cumulative mass first reaches u.
func sampleCDF(cdf []float64, u float64) int {
	for i, c := range cdf {
		if c >= u {
			return i + 1
		}
	}
	return len(cdf)
}

// inputHash fingerprints a workload's whole generated input stream; the
// determinism test and the result file record it.
func inputHash(workloadName string, seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if w, ok := liveWorkloads[workloadName]; ok {
		for _, in := range genLiveInputs(seed, w.size) {
			h.Write(in.req)
			put(in.sum)
		}
		return h.Sum64()
	}
	tape := genSimTape(seed)
	for _, op := range tape.ops {
		put(uint64(op.kind))
		put(math.Float64bits(op.value))
		if op.large {
			put(1)
		}
		if op.edit {
			put(2)
		}
	}
	for _, sc := range tape.scenes {
		put(uint64(sc))
	}
	return h.Sum64()
}
