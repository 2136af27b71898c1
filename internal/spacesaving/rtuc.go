package spacesaving

// RTUC is the Reduce-To-Unit-Case weighted extension of Space Saving
// (§1.3.5): an update (i, Δ) is fed to SSL as Δ unit updates, costing
// Θ(Δ) time per update. Like mg.RTUC it exists as the semantic reference
// for the isomorphism tests.
type RTUC struct {
	*StreamSummary
}

// NewRTUC returns a reduce-to-unit-case weighted SS summary.
func NewRTUC(k int) (*RTUC, error) {
	ss, err := NewStreamSummary(k)
	if err != nil {
		return nil, err
	}
	return &RTUC{StreamSummary: ss}, nil
}

// Name identifies the algorithm in harness output.
func (r *RTUC) Name() string { return "RTUC-SS" }

// UpdateWeighted processes (item, weight) as weight unit updates.
func (r *RTUC) UpdateWeighted(item int64, weight int64) {
	for ; weight > 0; weight-- {
		r.StreamSummary.Update(item)
	}
}
