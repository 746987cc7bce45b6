package sampling

// LiveIn is the static live-in summary of one simulation-point
// boundary: the architectural registers that may be read before being
// overwritten from the boundary onward, as two per-file bitmasks (bit i
// of Int is integer register ri, bit i of FP is fi), plus whether data
// memory may be read. It is the storage schema for portable
// checkpoints: state outside the masks (and, when Mem is false, the
// memory image) need not be captured for the point to replay
// bit-identically. Computed by internal/staticanalysis/dataflow and
// journaled as the "static_livein" event (see docs/OBSERVABILITY.md).
type LiveIn struct {
	// PC is the guest program counter at the boundary the masks were
	// computed for.
	PC int64 `json:"pc"`

	Int uint32 `json:"int"`
	FP  uint32 `json:"fp"`
	Mem bool   `json:"mem"`
}

// Scrub zeroes every register cell outside the masks: integer
// registers from r1 (r0 is architecturally zero) and every FP
// register. By liveness soundness the zeroed cells are never read
// before being written, so a scrubbed machine executes exactly as the
// unscrubbed one. It is the one scrub rule shared by the pipeline's
// boundary scrub and the checkpoint format.
func (li LiveIn) Scrub(ints *[32]int64, fps *[32]float64) {
	for i := 1; i < len(ints); i++ {
		if li.Int&(1<<uint(i)) == 0 {
			ints[i] = 0
		}
	}
	for i := range fps {
		if li.FP&(1<<uint(i)) == 0 {
			fps[i] = 0
		}
	}
}
