package corpus

import "math"

// Video popularity follows a power law with exponential cutoff (Cha et
// al., cited by the paper): most watch time concentrates in a few
// popular videos with a long tail of rarely watched ones. The sharing
// infrastructure uses this to decide which videos earn the expensive
// Popular re-transcode.

// PopularityModel parameterizes the watch-count distribution
// p(rank) ∝ rank^(−Alpha) · exp(−rank/Cutoff).
type PopularityModel struct {
	// Alpha is the power-law exponent (≈2 for user-generated content).
	Alpha float64
	// Cutoff is the exponential cutoff rank.
	Cutoff float64
}

// DefaultPopularity matches the user-generated-content fits of Cha et
// al.: a shallow power law (most mass still in the head, but with a
// meaningful tail) truncated deep in the catalogue.
func DefaultPopularity() PopularityModel {
	return PopularityModel{Alpha: 1.15, Cutoff: 5e5}
}

// Weight returns the relative watch weight of the video at the given
// popularity rank (1 = most popular).
func (m PopularityModel) Weight(rank int) float64 {
	r := float64(rank)
	return math.Pow(r, -m.Alpha) * math.Exp(-r/m.Cutoff)
}

// WatchShare returns the fraction of total watch time captured by the
// top-k videos out of n.
func (m PopularityModel) WatchShare(k, n int) float64 {
	if k > n {
		k = n
	}
	var top, total float64
	for r := 1; r <= n; r++ {
		w := m.Weight(r)
		total += w
		if r <= k {
			top += w
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}
