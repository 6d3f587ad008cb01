package zswap

import (
	"fmt"
	"time"

	"sdfm/internal/mem"
)

// DevicePool is a fixed-latency, fixed-capacity far-memory tier modelling
// hardware devices the paper compares against: NVM DIMMs, remote memory,
// and ultra-low-latency SSDs (§2.1, §7). It implements FarMemory so the
// same control plane can drive it, demonstrating that the cold-page
// identification design is not tied to zswap.
//
// Unlike the zswap Pool, a DevicePool consumes no near-memory footprint
// but has a hard capacity: the fixed-provisioning property whose stranding
// risk motivates the paper's software-defined approach.
type DevicePool struct {
	profile DeviceProfile
	// used is CURRENT occupancy in bytes; stats fields are CUMULATIVE.
	// They reconcile as
	//	used == (StoredPages - LoadedPages - droppedPages) * PageSize
	// which audit.CheckDevicePool enforces.
	used         uint64
	droppedPages uint64
	stats        Stats
}

// DeviceProfile describes a far-memory device.
type DeviceProfile struct {
	Name          string
	ReadLatency   time.Duration // per-page promotion latency
	WriteLatency  time.Duration // per-page demotion latency
	CapacityBytes uint64        // fixed provisioned capacity; 0 = unbounded
	// CostPerGB relative to DRAM (1.0 = DRAM price); used by the TCO model.
	CostPerGB float64
}

// Predefined device profiles with characteristics from the paper's
// discussion of alternatives (§2.1, §6.3): NVM DIMMs at sub-µs to low-µs,
// remote memory at one to tens of µs, Z-NAND-class SSDs at tens of µs.
var (
	ProfileNVM = DeviceProfile{
		Name: "nvm-dimm", ReadLatency: 2 * time.Microsecond,
		WriteLatency: 4 * time.Microsecond, CostPerGB: 0.5,
	}
	ProfileRemoteMemory = DeviceProfile{
		Name: "remote-memory", ReadLatency: 15 * time.Microsecond,
		WriteLatency: 15 * time.Microsecond, CostPerGB: 0.6,
	}
	ProfileZSSD = DeviceProfile{
		Name: "z-ssd", ReadLatency: 25 * time.Microsecond,
		WriteLatency: 30 * time.Microsecond, CostPerGB: 0.15,
	}
)

// NewDevicePool creates a device-backed far-memory tier.
func NewDevicePool(profile DeviceProfile) *DevicePool {
	return &DevicePool{profile: profile}
}

var _ FarMemory = (*DevicePool)(nil)

// Profile returns the device profile.
func (d *DevicePool) Profile() DeviceProfile { return d.profile }

// Prime does nothing: a device stores whole pages and compresses none.
func (d *DevicePool) Prime(*mem.Memcg, []mem.PageID) {}

// Store moves a page to the device. Pages never fail compression on a
// device tier, but the tier can fill up.
func (d *DevicePool) Store(m *mem.Memcg, id mem.PageID) StoreResult {
	if !m.Reclaimable(id) {
		panic(fmt.Sprintf("zswap: storing non-reclaimable page %d of %s", id, m.Name()))
	}
	if d.profile.CapacityBytes > 0 && d.used+mem.PageSize > d.profile.CapacityBytes {
		d.stats.FullRejects++
		return StoreResult{Outcome: StoreRejectedFull,
			Err: fmt.Errorf("storing page %d of %s: %w", id, m.Name(), ErrPoolFull)}
	}
	m.MarkCompressed(id, 1, mem.PageSize) // handle unused; full page stored
	d.used += mem.PageSize
	d.stats.StoredPages++
	d.stats.StoredBytes += mem.PageSize
	d.stats.PayloadBytes += mem.PageSize
	return StoreResult{
		Outcome:        StoreOK,
		CompressedSize: mem.PageSize,
		Ratio:          1,
		CPUTime:        0, // DMA, not CPU cycles
	}
}

// Load promotes a page from the device. Like Pool.Load it counts one
// LoadedPages and releases the page's occupancy; promotion latency is the
// device read, with no CPU decompression cost.
func (d *DevicePool) Load(m *mem.Memcg, id mem.PageID) (LoadResult, error) {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return LoadResult{}, fmt.Errorf("zswap: load of non-stored page %d of %s", id, m.Name())
	}
	if d.used < mem.PageSize {
		return LoadResult{}, fmt.Errorf("zswap: device %s load of page %d of %s with empty tier (accounting bug)",
			d.profile.Name, id, m.Name())
	}
	m.MarkPromoted(id)
	d.used -= mem.PageSize
	d.stats.LoadedPages++
	return LoadResult{
		CompressedSize: mem.PageSize,
		CPUTime:        0,
		Latency:        d.profile.ReadLatency,
	}, nil
}

// Drop discards a stored page without promotion, mirroring Pool.Drop:
// occupancy is released, the drop is counted via DroppedPages rather than
// as a LoadedPages promotion, and no device read latency is charged.
func (d *DevicePool) Drop(m *mem.Memcg, id mem.PageID) error {
	if !m.Flags(id).Has(mem.FlagCompressed) {
		return fmt.Errorf("zswap: device drop of non-stored page %d", id)
	}
	if d.used < mem.PageSize {
		return fmt.Errorf("zswap: device %s drop of page %d of %s with empty tier (accounting bug)",
			d.profile.Name, id, m.Name())
	}
	m.MarkPromoted(id)
	m.ClearFlags(id, mem.FlagAccessed)
	d.used -= mem.PageSize
	d.droppedPages++
	return nil
}

// DroppedPages returns how many pages have been discarded via Drop since
// creation (cumulative, like Stats).
func (d *DevicePool) DroppedPages() uint64 { return d.droppedPages }

// Compact is a no-op: a device tier holds whole pages on its own media,
// so it has no near memory to compact.
func (d *DevicePool) Compact() uint64 { return 0 }

// FootprintBytes: device tiers consume no near memory.
func (d *DevicePool) FootprintBytes() uint64 { return 0 }

// UsedBytes is the device capacity currently occupied.
func (d *DevicePool) UsedBytes() uint64 { return d.used }

// StrandedBytes is provisioned-but-unused device capacity, the quantity
// whose variability (Figure 2) argues against fixed provisioning.
func (d *DevicePool) StrandedBytes() uint64 {
	if d.profile.CapacityBytes == 0 {
		return 0
	}
	return d.profile.CapacityBytes - d.used
}

// Stats returns cumulative statistics; see the Stats type for which
// fields are cumulative (all of them) vs. the current-occupancy accessors
// (UsedBytes, StrandedBytes, DroppedPages reconciliation).
func (d *DevicePool) Stats() Stats { return d.stats }
