package parallel

import (
	"mlpa/internal/obs"
	"mlpa/internal/prog"
)

// Deprecated: plan execution no longer caches machine states; a
// StateCache does nothing and pipeline.ExecOptions.Cache ignores it.
type StateCache struct{}

// Deprecated: NewStateCache ignores its arguments; see StateCache.
func NewStateCache(*prog.Program, int64, *obs.Registry) *StateCache { return &StateCache{} }
