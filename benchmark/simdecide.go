package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"spectra"
	"spectra/internal/apps/janus"
	"spectra/internal/apps/latex"
	"spectra/internal/apps/pangloss"
	"spectra/internal/testbed"
)

const simWorkload = "sim_decide"

// The client side of the three paper applications, driven through the
// public API so each call gets its own span. These mirror the unexported
// request formats of internal/apps (the services are the apps' own); a
// drift there fails verification with "unknown optype", not silently.
const (
	janusAudioBytesPerSecond = 16_000
	janusOpFrontEnd          = "frontend"
	latexOpCompile           = "compile"
	panglossSentenceBytes    = 10 // request bytes per word
)

var (
	janusRecognizeOp = map[string]string{janus.VocabFull: "recognize.full", janus.VocabSmall: "recognize.reduced"}
	janusSearchOp    = map[string]string{janus.VocabFull: "search.full", janus.VocabSmall: "search.reduced"}
)

// Training sets, as internal/scenario trains the testbeds for the paper's
// figures (its lists are unexported).
var (
	simPanglossTraining = []float64{4, 10, 20, 34}
	simSpeechTraining   = []float64{1.5, 2.0, 2.5, 1.8, 2.2, 1.6, 2.4, 2.0, 1.9, 2.1, 1.7, 2.3, 2.0, 1.5, 2.5}
)

const simLatexTrainingRounds = 5

// simFixture is the system under test for sim_decide: the laptop testbed
// running Pangloss-Lite and Latex and the speech testbed running Janus, on
// virtual clocks, so wall time is Spectra's own work.
type simFixture struct {
	laptop *testbed.Laptop
	speech *testbed.Speech

	panglossOp, latexOp, janusOp *spectra.Operation
	latexApp                     *latex.App
	docs                         [2]latex.Document // small, large

	tape     *simTape
	scenes   []simScene
	n        uint64 // operations issued; doubles as the sequence number
	handlers *handlerLog
	curSeq   uint64 // the operation whose handlers are running
}

func newSimFixture(tape *simTape, obs *spectra.Observer, handlers *handlerLog, opts testbed.Options) (*simFixture, error) {
	opts.Obs = obs
	f := &simFixture{
		tape:     tape,
		scenes:   simScenes(),
		handlers: handlers,
		docs:     [2]latex.Document{latex.SmallDocument(), latex.LargeDocument()},
	}
	var err error
	if f.laptop, err = testbed.NewLaptop(opts); err != nil {
		return nil, err
	}
	if f.speech, err = testbed.NewSpeech(opts); err != nil {
		return nil, err
	}
	pApp, err := pangloss.Install(f.laptop.Setup)
	if err != nil {
		return nil, err
	}
	f.latexApp, err = latex.Install(f.laptop.Setup)
	if err != nil {
		return nil, err
	}
	jApp, err := janus.Install(f.speech.Setup)
	if err != nil {
		return nil, err
	}
	f.panglossOp, f.latexOp, f.janusOp = pApp.Operation(), f.latexApp.Operation(), jApp.Operation()
	if handlers != nil {
		f.wrapServices(f.laptop.Setup, pangloss.ServiceName, pangloss.Service)
		f.wrapServices(f.laptop.Setup, latex.ServiceName, f.latexApp.Service)
		f.wrapServices(f.speech.Setup, janus.ServiceName, janus.Service)
	}
	f.laptop.Setup.Refresh()
	f.speech.Setup.Refresh()

	servers := f.laptop.Setup.Client.Servers()
	for _, words := range simPanglossTraining {
		for _, alt := range pangloss.AllAlternatives(servers) {
			if _, err := pApp.TranslateForced(alt, words); err != nil {
				return nil, fmt.Errorf("pangloss training: %w", err)
			}
		}
	}
	for i := 0; i < simLatexTrainingRounds; i++ {
		for _, doc := range f.docs {
			for _, alt := range []spectra.Alternative{
				{Plan: latex.PlanLocal},
				{Server: "serverA", Plan: latex.PlanRemote},
				{Server: "serverB", Plan: latex.PlanRemote},
			} {
				if _, err := f.latexApp.CompileForced(alt, doc); err != nil {
					return nil, fmt.Errorf("latex training: %w", err)
				}
			}
		}
	}
	for _, length := range simSpeechTraining {
		for _, alt := range scenarioSpeechAlternatives() {
			if _, err := jApp.RecognizeForced(alt, length); err != nil {
				return nil, fmt.Errorf("janus training: %w", err)
			}
		}
	}
	return f, nil
}

// scenarioSpeechAlternatives is the six-bar decision space of the paper's
// Figures 3 and 4.
func scenarioSpeechAlternatives() []spectra.Alternative {
	var out []spectra.Alternative
	for _, sp := range [][2]string{{"", janus.PlanLocal}, {"t20", janus.PlanHybrid}, {"t20", janus.PlanRemote}} {
		for _, vocab := range []string{janus.VocabFull, janus.VocabSmall} {
			out = append(out, spectra.Alternative{
				Server: sp[0], Plan: sp[1], Fidelity: map[string]string{janus.FidelityDim: vocab},
			})
		}
	}
	return out
}

// wrapServices re-registers a service on every node of a setup under a
// wrapper that logs each execution as a handler span (traced runs only).
func (f *simFixture) wrapServices(setup *spectra.SimSetup, name string, fn spectra.ServiceFunc) {
	wrapped := func(ctx *spectra.ServiceContext, optype string, payload []byte) ([]byte, error) {
		start := time.Now()
		out, err := fn(ctx, optype, payload)
		f.handlers.record(f.curSeq, start)
		return out, err
	}
	setup.Env.Host().RegisterService(name, wrapped)
	for _, server := range setup.Env.ServerNames() {
		node, _, _ := setup.Env.Server(server)
		node.RegisterService(name, wrapped)
	}
}

// request is what Begin needs for one generated operation.
type simRequest struct {
	client *spectra.Client
	op     *spectra.Operation
	params map[string]float64
	data   string
}

func (f *simFixture) request(op simOp) simRequest {
	switch op.kind {
	case simTranslate:
		return simRequest{f.laptop.Setup.Client, f.panglossOp, map[string]float64{pangloss.ParamWords: op.value}, ""}
	case simRecognize:
		return simRequest{f.speech.Setup.Client, f.janusOp, map[string]float64{janus.ParamLength: op.value}, ""}
	default:
		doc := f.doc(op)
		return simRequest{f.laptop.Setup.Client, f.latexOp, map[string]float64{latex.ParamPages: doc.Pages}, doc.Name}
	}
}

func (f *simFixture) doc(op simOp) latex.Document {
	if op.large {
		return f.docs[1]
	}
	return f.docs[0]
}

// run issues the tape's next operation, applying the next scene first when
// one is due. Only Begin → End is timed.
func (f *simFixture) run(rec *recorder) opResult {
	i := f.n % uint64(len(f.tape.ops))
	if i%simSceneOps == 0 {
		if err := f.applyScene(f.scenes[f.tape.scenes[i/simSceneOps]]); err != nil {
			return failed(err)
		}
	}
	f.n++
	op := f.tape.ops[i]
	seq := f.n
	f.curSeq = seq
	req := f.request(op)
	if op.kind == simCompile && op.edit {
		if err := f.latexApp.TouchInput(f.doc(op)); err != nil {
			return failed(err)
		}
	}

	sOp := rec.start(spanOp, seq, -1)
	sBegin := rec.start(spanBegin, seq, sOp)
	t0 := time.Now()
	octx, err := req.client.BeginFidelityOp(req.op, req.params, req.data)
	t1 := time.Now()
	rec.end(sBegin)
	if err != nil {
		rec.end(sOp)
		return failed(err)
	}
	plan := octx.Plan()
	outOK, err := f.execute(rec, sOp, seq, octx, op)
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
	if !outOK || rep.Decision.Alternative.Plan != plan || rep.Elapsed <= 0 || rep.Degraded {
		res.fail = failWrongOutput
		res.err = fmt.Errorf("op %d: output %v, report plan %q (executed %q), elapsed %v, degraded %v",
			seq, outOK, rep.Decision.Alternative.Plan, plan, rep.Elapsed, rep.Degraded)
	}
	return res
}

// execute carries out the decided plan and reports whether the service's
// output is the expected one.
func (f *simFixture) execute(rec *recorder, parent int32, seq uint64, octx *spectra.OpContext, op simOp) (bool, error) {
	switch op.kind {
	case simTranslate:
		plan, err := pangloss.ParsePlan(octx.Plan())
		if err != nil {
			return false, err
		}
		sentence := countedPayload(uint64(op.value), int(op.value)*panglossSentenceBytes)
		combine := countedPayload(uint64(op.value), 8)
		for _, eng := range pangloss.Engines() {
			if octx.Fidelity()[eng] != pangloss.On {
				continue
			}
			out, err := doCall(rec, parent, seq, octx, plan.PlacementOf(eng) == pangloss.Remote, "engine."+eng, sentence)
			if err != nil {
				return false, err
			}
			combine = append(combine, out...)
		}
		out, err := doCall(rec, parent, seq, octx, plan.LM == pangloss.Remote, "combine", combine)
		return len(out) >= 8 && binary.BigEndian.Uint64(out) == uint64(op.value), err

	case simRecognize:
		vocab := octx.Fidelity()[janus.FidelityDim]
		audio := make([]byte, int(janusAudioBytesPerSecond*op.value))
		var (
			out []byte
			err error
		)
		switch octx.Plan() {
		case janus.PlanLocal:
			out, err = doCall(rec, parent, seq, octx, false, janusRecognizeOp[vocab], audio)
		case janus.PlanRemote:
			out, err = doCall(rec, parent, seq, octx, true, janusRecognizeOp[vocab], audio)
		case janus.PlanHybrid:
			out, err = doCall(rec, parent, seq, octx, false, janusOpFrontEnd, audio)
			if err == nil {
				out, err = doCall(rec, parent, seq, octx, true, janusSearchOp[vocab], out)
			}
		default:
			err = fmt.Errorf("janus: unknown plan %q", octx.Plan())
		}
		// The recognizer's text carries the utterance length in milliseconds.
		return len(out) >= 8 && binary.BigEndian.Uint64(out) == uint64(op.value*1000), err

	default:
		doc := f.doc(op)
		out, err := doCall(rec, parent, seq, octx, octx.Plan() == latex.PlanRemote, latexOpCompile, []byte(doc.Name))
		return string(out) == "dvi:"+doc.Output, err
	}
}

// countedPayload is a request of n bytes (at least 8) whose header carries
// a count, the framing the Pangloss service decodes.
func countedPayload(count uint64, n int) []byte {
	if n < 8 {
		n = 8
	}
	buf := make([]byte, n)
	binary.BigEndian.PutUint64(buf, count)
	return buf
}

// applyScene puts both testbeds into one environment, lets idle-time
// reintegration clear the client's buffered writes, and refreshes both
// clients' monitors as a live deployment's background polling would.
func (f *simFixture) applyScene(sc simScene) error {
	machines := [5]*spectra.Machine{f.laptop.X560, f.laptop.ServerA, f.laptop.ServerB, f.speech.Itsy, f.speech.T20}
	for i, m := range machines {
		m.SetBackgroundTasks(sc.background[i])
	}
	links := [3]*spectra.Link{f.laptop.WirelessA, f.laptop.WirelessB, f.speech.Serial}
	bases := [3]float64{testbed.WirelessBps, testbed.WirelessBps, testbed.SerialBps}
	for i, l := range links {
		l.SetBandwidthBps(bases[i] / float64(int(1)<<sc.bandwidth[i]))
	}
	switch sc.evict {
	case 1:
		if node, _, ok := f.laptop.Setup.Env.Server("serverB"); ok {
			node.Coda().Evict(pangloss.EBMTFile)
		}
	case 2:
		if node, _, ok := f.laptop.Setup.Env.Server("serverA"); ok {
			node.Coda().Evict(pangloss.GlossFile)
		}
	case 3:
		f.speech.Setup.Env.Host().Coda().Evict(janus.LMFullPath)
	}
	if _, err := f.laptop.Setup.Env.Host().Coda().ReintegrateAll(); err != nil {
		return fmt.Errorf("background reintegration: %w", err)
	}
	for i := 0; i < 4; i++ {
		f.laptop.Setup.Refresh()
		f.speech.Setup.Refresh()
	}
	return nil
}

// simUtilityReqsPerScene requests are checked in every scene.
const simUtilityReqsPerScene = 50

// relativeUtility is the decision-quality check: in every scene, for a
// sample of the tape's requests, the predicted utility of Begin's choice
// over the best predicted utility in Client.EvaluateAlternatives. Nothing
// executes.
func (f *simFixture) relativeUtility() (float64, error) {
	var ratios []float64
	next := 0
	for _, sc := range f.scenes {
		if err := f.applyScene(sc); err != nil {
			return 0, err
		}
		for i := 0; i < simUtilityReqsPerScene; i++ {
			req := f.request(f.tape.ops[next%len(f.tape.ops)])
			next += 61 // stride through the tape, coprime with its length
			octx, err := req.client.BeginFidelityOp(req.op, req.params, req.data)
			if err != nil {
				return 0, err
			}
			chosen := octx.Decision().Alternative
			octx.Abort()
			ratios = append(ratios, utilityRatio(req.client.EvaluateAlternatives(req.op, req.params, req.data), chosen))
		}
	}
	return mean(ratios), nil
}
