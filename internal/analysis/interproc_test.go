package analysis_test

import (
	"testing"

	"github.com/cap-repro/crisprscan/internal/analysis"
	"github.com/cap-repro/crisprscan/internal/analysis/analysistest"
)

func TestGoroutineLeakRequiresTerminationPath(t *testing.T) {
	analysistest.Run(t, analysis.GoroutineLeak,
		analysistest.Pkg{Dir: "goroutineleak", Path: analysistest.ModulePath + "/internal/glfix"})
}

func TestLockCycleFlagsOrderInversions(t *testing.T) {
	analysistest.Run(t, analysis.LockCycle,
		analysistest.Pkg{Dir: "lockcycle", Path: analysistest.ModulePath + "/internal/lcfix"})
}

func TestDeferLoopFlagsAccumulatingDefers(t *testing.T) {
	analysistest.Run(t, analysis.DeferLoop,
		analysistest.Pkg{Dir: "deferloop", Path: analysistest.ModulePath + "/internal/dlfix"})
}
