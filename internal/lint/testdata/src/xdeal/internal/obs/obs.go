// Package obs is the sanctioned observability wrapper around ambient
// sources: the second noclock exemption fixture. Wall-clock stage
// timing lives here precisely so no other simulator package needs a
// clock. No noclock diagnostics may fire.
package obs

import "time"

// stageStart may read the wall clock: obs confines wall readings to
// artifacts (bench snapshots, profiles) that never feed a report.
func stageStart() time.Time { return time.Now() }

// stageSeconds may measure wall intervals for the same reason.
func stageSeconds(begin time.Time) float64 { return time.Since(begin).Seconds() }
