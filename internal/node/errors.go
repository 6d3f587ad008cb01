package node

import "errors"

// Sentinel errors callers can branch on with errors.Is. Wrapped errors
// carry machine/job context via %w.
var (
	// ErrOutOfMemory means a machine is over capacity with no evictable
	// job left to free memory.
	ErrOutOfMemory = errors.New("node: out of memory with no evictable jobs")
	// ErrJobNotRunning means the operation requires a running job but the
	// target has already finished or been evicted.
	ErrJobNotRunning = errors.New("node: job not running")
	// ErrPromotionFailed means a promotion fault could not be served by
	// the far-memory tier.
	ErrPromotionFailed = errors.New("node: promotion failed")
)
