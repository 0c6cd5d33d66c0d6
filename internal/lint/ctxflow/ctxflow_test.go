package ctxflow_test

import (
	"testing"

	"spectra/internal/lint/ctxflow"
	"spectra/internal/lint/linttest"
)

const (
	stubPath = "spectra/internal/lint/ctxflow/testdata/src/rpcstub"
	reqPath  = "spectra/internal/lint/ctxflow/testdata/src/reqpath"
)

func golden() ctxflow.Config {
	return ctxflow.Config{
		RequestPkgs: []string{stubPath, reqPath},
		Sinks: []string{
			"(*" + stubPath + ".Conn).CallContext",
		},
	}
}

// TestGolden runs both packages in one program, dependency first, so the
// cross-package fact (rpcstub.Exchange reaches the sink) is exported
// before reqpath is analyzed.
func TestGolden(t *testing.T) {
	linttest.Run(t, ctxflow.New(golden()), "./testdata/src/rpcstub", "./testdata/src/reqpath")
}

// TestRequestPkgScoping verifies packages outside RequestPkgs are never
// reported even when they mint roots on sink-reaching paths.
func TestRequestPkgScoping(t *testing.T) {
	cfg := golden()
	cfg.RequestPkgs = []string{stubPath} // reqpath out of scope: its wants must not fire...
	a := ctxflow.New(cfg)
	// ...so run only the dependency package, which is clean by itself.
	linttest.Run(t, a, "./testdata/src/rpcstub")
}
