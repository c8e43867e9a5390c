package durable

import "mdw/internal/obs"

// Metric handles, resolved once at package init so the append hot path
// pays a single atomic add each.
var (
	obsWALBytes     = obs.Default().Counter("mdw_wal_bytes_total")
	obsWALErrors    = obs.Default().Counter("mdw_wal_errors_total")
	obsFsyncHist    = obs.Default().Histogram("mdw_wal_fsync_seconds", nil)
	obsCkptHist     = obs.Default().Histogram("mdw_checkpoint_seconds", nil)
	obsCkptBytes    = obs.Default().Gauge("mdw_checkpoint_last_bytes")
	obsTornTails    = obs.Default().Counter("mdw_recovery_torn_tails_total")
	obsBadSnapshots = obs.Default().Counter("mdw_recovery_bad_snapshots_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_wal_bytes_total", "Bytes appended to the write-ahead log (frames included).")
	r.SetHelp("mdw_wal_errors_total", "WAL append/sync failures; the store keeps running but durability is degraded.")
	r.SetHelp("mdw_wal_fsync_seconds", "Latency of WAL fsync calls, by policy.")
	r.SetHelp("mdw_checkpoint_seconds", "End-to-end checkpoint latency (capture, write, truncate).")
	r.SetHelp("mdw_checkpoint_last_bytes", "Size of the most recent checkpoint file, base or delta.")
	r.SetHelp("mdw_recovery_torn_tails_total", "Torn WAL tails truncated during recovery.")
	r.SetHelp("mdw_recovery_bad_snapshots_total", "Checkpoint files, base or delta, that failed validation or did not fit their chain and were skipped during recovery.")
}
