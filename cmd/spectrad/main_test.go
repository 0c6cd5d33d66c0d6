package main

import (
	"context"
	"encoding/binary"
	"testing"

	"spectra"
	"spectra/internal/rpc"
)

func TestWorkServicePayloads(t *testing.T) {
	machine := spectra.NewMachine(spectra.MachineConfig{
		Name: "m", SpeedMHz: 100_000, OnWallPower: true,
	})
	node := spectra.NewNode(machine, nil, nil)
	ctx := newCtx(node)

	// Integer work.
	payload := make([]byte, 9)
	binary.BigEndian.PutUint64(payload, 50)
	out, err := workService(ctx, "run", payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "done" {
		t.Fatalf("out = %q", out)
	}
	if got := ctx.Usage().Megacycles; got != 50 {
		t.Fatalf("megacycles = %v, want 50", got)
	}

	// Floating-point work: the FP flag routes through the penalty path.
	fp := make([]byte, 9)
	binary.BigEndian.PutUint64(fp, 10)
	fp[8] = 1
	if _, err := workService(newCtx(node), "run", fp); err != nil {
		t.Fatal(err)
	}

	// Short payloads are rejected.
	if _, err := workService(newCtx(node), "run", []byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func newCtx(node *spectra.Node) *spectra.ServiceContext {
	return spectra.NewServiceContext(spectra.RealClock{}, node, nil)
}

func TestSpectradServesWork(t *testing.T) {
	// Assemble the same server run() builds, on an ephemeral port.
	machine := spectra.NewMachine(spectra.MachineConfig{
		Name: "d", SpeedMHz: 100_000, OnWallPower: true,
	})
	node := spectra.NewNode(machine, nil, nil)
	srv := spectra.NewServer("d", node, spectra.RealClock{})
	srv.Register("spectra.work", workService)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 9)
	binary.BigEndian.PutUint64(payload, 25)
	_, usage, _, err := c.CallContext(context.Background(), "spectra.work", "run", payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if usage == nil || usage.CPUMegacycles != 25 {
		t.Fatalf("usage = %+v", usage)
	}
}
