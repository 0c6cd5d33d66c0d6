package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"spectra"
)

// liveSpec is what distinguishes the live workloads: the request and reply
// size, and whether the placement-decision cache is on.
type liveSpec struct {
	size  int
	cache bool
}

var liveWorkloads = map[string]liveSpec{
	"live_small_cold": {size: 64, cache: false},
	"live_small_warm": {size: 64, cache: true},
	"live_bulk":       {size: 64 << 10, cache: true},
}

const (
	liveService = "bench.svc"
	liveOpName  = "bench.op"
	planRemote  = "remote"
	planHybrid  = "hybrid"
	fidelityDim = "q"
	paramBytes  = "bytes"
	opPrep      = "prep"
	// liveTrainingSweeps forced passes over every alternative train the
	// demand models before anything is measured.
	liveTrainingSweeps = 3
)

// The fidelity levels, their desirability, and the remote optype each maps
// to (precomputed so the loop does not build strings).
var (
	liveFidelities = []string{"low", "med", "high"}
	liveFidelityU  = map[string]float64{"low": 0.5, "med": 0.75, "high": 1}
	liveRunOp      = map[string]string{"low": "run.low", "med": "run.med", "high": "run.high"}
	liveRunCode    = map[string]uint64{"run.low": 1, "run.med": 2, "run.high": 3}
)

// liveFixture is the system under test for the live workloads: two
// in-process Spectra servers doing zero paced work, and a default-configured
// live client (deadlines, hedging and failover on) with one TCP connection
// per server over loopback.
type liveFixture struct {
	spec     liveSpec
	servers  []*spectra.Server
	names    []string
	addrs    map[string]string
	setup    *spectra.LiveSetup
	op       *spectra.Operation
	params   map[string]float64
	handlers *handlerLog
}

// newLiveFixture builds servers and client, registers the operation, polls
// and probes the servers, and trains the models: everything setup_s times.
// obs is nil for end-to-end runs; handlers is nil unless spans are recorded.
func newLiveFixture(spec liveSpec, obs *spectra.Observer, handlers *handlerLog) (*liveFixture, error) {
	f := &liveFixture{
		spec:     spec,
		names:    []string{"s1", "s2"},
		addrs:    make(map[string]string),
		params:   map[string]float64{paramBytes: float64(spec.size)},
		handlers: handlers,
	}
	for _, name := range f.names {
		machine := spectra.NewMachine(spectra.MachineConfig{Name: name, SpeedMHz: 1000, OnWallPower: true})
		srv := spectra.NewServer(name, spectra.NewNode(machine, nil, nil), spectra.RealClock{})
		srv.Register(liveService, f.service)
		srv.SetObserver(obs)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("listen %s: %w", name, err)
		}
		f.servers = append(f.servers, srv)
		f.addrs[name] = addr
	}
	setup, err := spectra.NewLiveSetup(spectra.LiveOptions{
		Servers:  f.addrs,
		PoolSize: 1,
		Cache:    spectra.CacheOptions{Enabled: spec.cache},
		Obs:      obs,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.setup = setup
	// The hybrid plan's local pre-step runs on the client's own node.
	setup.Host.RegisterService(liveService, f.service)
	f.op, err = setup.Client.RegisterFidelity(spectra.OperationSpec{
		Name:    liveOpName,
		Service: liveService,
		Plans: []spectra.PlanSpec{
			{Name: planRemote, UsesServer: true},
			{Name: planHybrid, UsesServer: true},
		},
		Fidelities:      []spectra.FidelityDimension{{Name: fidelityDim, Values: liveFidelities}},
		Params:          []string{paramBytes},
		FidelityUtility: func(fid map[string]string) float64 { return liveFidelityU[fid[fidelityDim]] },
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	w := f.worker(0, 0)
	for sweep := 0; sweep < liveTrainingSweeps; sweep++ {
		for _, alt := range f.alternatives() {
			alt := alt
			if r := w.run(nil, &alt); r.fail != failNone {
				f.Close()
				return nil, fmt.Errorf("training %s: %v", alt.Key(), r.err)
			}
		}
	}
	return f, nil
}

// alternatives lists the decision space: 2 plans × 3 fidelities × 2 servers.
func (f *liveFixture) alternatives() []spectra.Alternative {
	var out []spectra.Alternative
	for _, plan := range []string{planRemote, planHybrid} {
		for _, server := range f.names {
			for _, q := range liveFidelities {
				out = append(out, spectra.Alternative{
					Server: server, Plan: plan, Fidelity: map[string]string{fidelityDim: q},
				})
			}
		}
	}
	return out
}

func (f *liveFixture) Close() {
	if f.setup != nil {
		f.setup.Runtime.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// service is the benchmark's own code component, hosted on both servers and
// on the client node. It returns bytes and never calls Compute, so nothing
// in an operation is paced: "prep" digests the request header, "run.*"
// echoes the body under a checksum that also encodes the fidelity served.
func (f *liveFixture) service(_ *spectra.ServiceContext, optype string, payload []byte) ([]byte, error) {
	var start time.Time
	if f.handlers != nil {
		start = time.Now()
	}
	if len(payload) < reqBodyOff {
		return nil, fmt.Errorf("bench service: %d-byte request has no header", len(payload))
	}
	var out []byte
	if optype == opPrep {
		out = make([]byte, 8)
		binary.BigEndian.PutUint64(out, prepDigest(payload))
	} else {
		code, ok := liveRunCode[optype]
		if !ok {
			return nil, fmt.Errorf("bench service: unknown optype %q", optype)
		}
		out = make([]byte, len(payload))
		copy(out, payload)
		binary.BigEndian.PutUint64(out[reqIdxOff:], bodySum(payload)^code)
	}
	f.handlers.record(binary.BigEndian.Uint64(payload[reqSeqOff:]), start)
	return out, nil
}

func prepDigest(header []byte) uint64 {
	return binary.BigEndian.Uint64(header[reqSeqOff:]) ^ binary.BigEndian.Uint64(header[reqIdxOff:])<<32
}

// liveWorker is one closed-loop caller: it owns its request buffers and
// issues the next operation only after the previous one returned.
type liveWorker struct {
	f      *liveFixture
	inputs []liveInput
	base   uint64 // worker id in the sequence number's high bits
	n      uint64
}

func (f *liveFixture) worker(id int, seed uint64) *liveWorker {
	return &liveWorker{
		f:      f,
		inputs: genLiveInputs(seed+uint64(id)*0x9e3779b97f4a7c15, f.spec.size),
		base:   uint64(id+1) << 40,
	}
}

// run executes one operation the way an application does — Begin, execute
// the decided plan, End — and checks the reply byte for byte. forced
// dictates the alternative (training only).
func (w *liveWorker) run(rec *recorder, forced *spectra.Alternative) opResult {
	f := w.f
	in := &w.inputs[w.n%uint64(len(w.inputs))]
	w.n++
	seq := w.base | w.n
	binary.BigEndian.PutUint64(in.req[reqSeqOff:], seq)

	sOp := rec.start(spanOp, seq, -1)
	sBegin := rec.start(spanBegin, seq, sOp)
	t0 := time.Now()
	var (
		octx *spectra.OpContext
		err  error
	)
	if forced != nil {
		octx, err = f.setup.Client.BeginForced(f.op, *forced, f.params, "")
	} else {
		octx, err = f.setup.Client.BeginFidelityOp(f.op, f.params, "")
	}
	t1 := time.Now()
	rec.end(sBegin)
	if err != nil {
		rec.end(sOp)
		return failed(err)
	}

	optype := liveRunOp[octx.Fidelity()[fidelityDim]]
	prepOK := true
	if octx.Plan() == planHybrid {
		digest, err := doCall(rec, sOp, seq, octx, false, opPrep, in.req[:reqBodyOff])
		if err != nil {
			octx.Abort()
			rec.end(sOp)
			return failed(err)
		}
		prepOK = len(digest) == 8 && binary.BigEndian.Uint64(digest) == prepDigest(in.req)
	}
	out, err := doCall(rec, sOp, seq, octx, true, optype, in.req)
	if err != nil {
		octx.Abort()
		rec.end(sOp)
		return failed(err)
	}

	sEnd := rec.start(spanEnd, seq, sOp)
	rep, err := octx.End()
	t2 := time.Now()
	rec.end(sEnd)
	rec.end(sOp)
	if err != nil {
		return failed(err)
	}

	res := opResult{beginNs: int64(t1.Sub(t0)), opNs: int64(t2.Sub(t0)), report: rep}
	replyOK := len(out) == len(in.req) &&
		binary.BigEndian.Uint64(out[reqSeqOff:]) == seq &&
		binary.BigEndian.Uint64(out[reqIdxOff:]) == in.sum^liveRunCode[optype] &&
		bytes.Equal(out[reqBodyOff:], in.req[reqBodyOff:])
	if !prepOK || !replyOK {
		res.fail = failWrongOutput
		res.err = fmt.Errorf("op %#x: reply does not match the expected bytes", seq)
	}
	return res
}

// doCall makes one DoLocalOp or DoRemoteOp under its span.
func doCall(rec *recorder, parent int32, seq uint64, octx *spectra.OpContext, remote bool, optype string, payload []byte) ([]byte, error) {
	if remote {
		s := rec.start(spanDoRemote, seq, parent)
		out, err := octx.DoRemoteOp(optype, payload)
		rec.end(s)
		return out, err
	}
	s := rec.start(spanDoLocal, seq, parent)
	out, err := octx.DoLocalOp(optype, payload)
	rec.end(s)
	return out, err
}

// liveUtilityReqs requests are checked after the window.
const liveUtilityReqs = 200

// relativeUtility is the decision-quality check made after the window: the
// predicted utility of the alternative Begin chooses over the best
// predicted utility among all alternatives, both read from the same
// EvaluateAlternatives ranking.
func (f *liveFixture) relativeUtility() (float64, error) {
	ratios := make([]float64, 0, liveUtilityReqs)
	for i := 0; i < liveUtilityReqs; i++ {
		octx, err := f.setup.Client.BeginFidelityOp(f.op, f.params, "")
		if err != nil {
			return 0, err
		}
		chosen := octx.Decision().Alternative
		octx.Abort()
		ratios = append(ratios, utilityRatio(f.setup.Client.EvaluateAlternatives(f.op, f.params, ""), chosen))
	}
	return mean(ratios), nil
}

// utilityRatio is chosen's utility over the ranking's best (1 when nothing
// has positive utility: no choice is then worse than another).
func utilityRatio(ranked []spectra.ScoredAlternative, chosen spectra.Alternative) float64 {
	if len(ranked) == 0 || ranked[0].Utility <= 0 {
		return 1
	}
	key := chosen.Key()
	for _, s := range ranked {
		if s.Alternative.Key() == key {
			return s.Utility / ranked[0].Utility
		}
	}
	return 0
}
