package sim

import (
	"fmt"
	"sync/atomic"
)

// Engine selects how SpawnProgram executes a micro-op program
// (package prog): the compiled engine steps it natively through the
// dispatch table in compiled.go; the interpreted engine runs it as a
// closure thread that walks the same program op by op through the
// per-op Thread methods (Walk). Workloads build one program either
// way, and only SpawnProgram consults the engine; closure workloads
// (Spawn) run the same under both. The two produce byte-identical
// results — the golden digest and differential tests enforce it — so
// the choice is an escape hatch for checking the executor (-engine in
// cmd/armbar and cmd/armsim).
type Engine int

const (
	// EngineDefault resolves to the process-wide default (compiled
	// unless SetDefaultEngine overrode it).
	EngineDefault Engine = iota
	// EngineCompiled steps programs natively (the dispatch table).
	EngineCompiled
	// EngineInterp walks programs through the per-op Thread methods.
	EngineInterp
)

func (e Engine) String() string {
	switch e {
	case EngineDefault:
		return "default"
	case EngineCompiled:
		return "compiled"
	case EngineInterp:
		return "interp"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine resolves a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "compiled":
		return EngineCompiled, nil
	case "interp":
		return EngineInterp, nil
	default:
		return 0, fmt.Errorf("sim: unknown engine %q (want compiled or interp)", s)
	}
}

// defaultEngine holds the process-wide engine default; 0 means unset,
// which resolves to compiled.
var defaultEngine atomic.Int32

// SetDefaultEngine installs the process-wide engine SpawnProgram
// uses. Passing EngineDefault restores the built-in default
// (compiled).
func SetDefaultEngine(e Engine) { defaultEngine.Store(int32(e)) }

// Resolve maps EngineDefault to the process-wide default.
func (e Engine) Resolve() Engine {
	if e != EngineDefault {
		return e
	}
	if d := Engine(defaultEngine.Load()); d != EngineDefault {
		return d
	}
	return EngineCompiled
}
