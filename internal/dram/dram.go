// Package dram models the multi-channel memory system of the paper's
// evaluation platform (an effective 800 MHz, 4-channel Rambus part behind a
// 1.6 GHz core) together with the SRP/GRP access prioritizer of Figure 2.
//
// The model is analytic rather than queue-stepped: each channel and bank
// records the cycle at which it next becomes free, and a request submitted
// at cycle t is served at the earliest cycle satisfying channel, bank, and
// row-state constraints. Blocks interleave across channels at block
// granularity, so a 4 KB region burst spreads over all channels and enjoys
// open-row hits within each bank — the property that makes scheduled region
// prefetching cheap when the bus is otherwise idle.
package dram

import (
	"fmt"

	"grp/internal/metrics"
)

// Config describes the memory system. All times are CPU cycles.
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int // DRAM row (open page) size per bank
	BlockBytes      int // transfer unit (cache block)

	RowHitCycles   uint64 // activation-to-data when the row is already open
	RowMissCycles  uint64 // precharge+activate+access when it is not
	TransferCycles uint64 // channel data-bus occupancy per block

	// BankBusyHit/BankBusyMiss are how long the bank itself is occupied
	// (row-cycle time), which is shorter than the end-to-end latency: a
	// bank can start a new access while earlier data is still in flight.
	BankBusyHit  uint64
	BankBusyMiss uint64
}

// Default returns the configuration used throughout the reproduction,
// calibrated so an isolated L2 miss costs roughly 160–220 CPU cycles
// end-to-end, matching the "hundreds of cycles" DRAM accesses of Section 1.
func Default() Config {
	return Config{
		Channels:        4,
		BanksPerChannel: 8,
		RowBytes:        2048,
		BlockBytes:      64,
		RowHitCycles:    80,
		RowMissCycles:   180,
		TransferCycles:  16,
		BankBusyHit:     24,
		BankBusyMiss:    64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBytes <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("dram: nonpositive geometry")
	}
	if c.RowBytes%c.BlockBytes != 0 {
		return fmt.Errorf("dram: row size %d not a multiple of block size %d", c.RowBytes, c.BlockBytes)
	}
	return nil
}

// Stats accumulates controller event counts.
type Stats struct {
	DemandReads   uint64
	PrefetchReads uint64
	Writebacks    uint64
	RowHits       uint64
	RowMisses     uint64
}

type bank struct {
	openRow int64 // -1 = closed
	freeAt  uint64
}

// SubmitHook observes every scheduled transfer; the telemetry timeline
// uses it to record bank busy spans. rowHit reports whether the access hit
// an open row; busyUntil is when the bank's row cycle completes.
type SubmitHook func(ch, bk int, kind Kind, start, busyUntil uint64, rowHit bool)

// FaultHook lets a fault injector perturb the timing of one access: the
// returned extraLatency stretches the end-to-end latency (a degraded
// channel) and extraBankBusy extends the bank's row cycle (a stuck-busy
// bank). Faults are timing-only; they never change what data arrives.
type FaultHook func(kind Kind) (extraLatency, extraBankBusy uint64)

// Controller is the memory controller plus channel/bank state.
type Controller struct {
	cfg       Config
	chanFree  []uint64
	banks     [][]bank
	stats     Stats
	rowBlocks uint64

	// Shift/mask fast path for Map when every geometry parameter is a
	// power of two (the paper's configuration is); pow2 guards it.
	pow2      bool
	blkShift  uint
	chanMask  uint64
	chanShift uint
	rowShift  uint
	bankMask  uint64
	bankShift uint

	// chanBusy accumulates data-bus occupancy per channel, the numerator
	// of the utilization telemetry series. One add per transfer.
	chanBusy []uint64
	onSubmit SubmitHook
	onFault  FaultHook
}

// New builds a controller, or reports why the configuration is invalid.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		chanFree:  make([]uint64, cfg.Channels),
		banks:     make([][]bank, cfg.Channels),
		rowBlocks: uint64(cfg.RowBytes / cfg.BlockBytes),
		chanBusy:  make([]uint64, cfg.Channels),
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	if pow2(cfg.BlockBytes) && pow2(cfg.Channels) && pow2(int(c.rowBlocks)) && pow2(cfg.BanksPerChannel) {
		log2 := func(n int) uint {
			var s uint
			for n > 1 {
				n >>= 1
				s++
			}
			return s
		}
		c.pow2 = true
		c.blkShift = log2(cfg.BlockBytes)
		c.chanMask = uint64(cfg.Channels - 1)
		c.chanShift = log2(cfg.Channels)
		c.rowShift = log2(int(c.rowBlocks))
		c.bankMask = uint64(cfg.BanksPerChannel - 1)
		c.bankShift = log2(cfg.BanksPerChannel)
	}
	for i := range c.banks {
		c.banks[i] = make([]bank, cfg.BanksPerChannel)
		for j := range c.banks[i] {
			c.banks[i][j].openRow = -1
		}
	}
	return c, nil
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Map decomposes a block address into channel, bank, and row. Consecutive
// blocks round-robin across channels; consecutive channel-local blocks fill
// a row before moving to the next bank.
func (c *Controller) Map(addr uint64) (ch, bk int, row int64) {
	if c.pow2 {
		blk := addr >> c.blkShift
		ch = int(blk & c.chanMask)
		rowIdx := blk >> c.chanShift >> c.rowShift
		bk = int(rowIdx & c.bankMask)
		row = int64(rowIdx >> c.bankShift)
		return ch, bk, row
	}
	blk := addr / uint64(c.cfg.BlockBytes)
	ch = int(blk % uint64(c.cfg.Channels))
	local := blk / uint64(c.cfg.Channels)
	rowIdx := local / c.rowBlocks
	bk = int(rowIdx % uint64(c.cfg.BanksPerChannel))
	row = int64(rowIdx / uint64(c.cfg.BanksPerChannel))
	return ch, bk, row
}

// ChannelFreeAt returns the cycle at which channel ch's data bus is free.
// The prioritizer uses it to issue prefetches only into idle channels.
func (c *Controller) ChannelFreeAt(ch int) uint64 { return c.chanFree[ch] }

// SetSubmitHook installs a per-transfer observer (nil to remove). The hook
// runs inside Submit, so it must be cheap and must not call back into the
// controller.
func (c *Controller) SetSubmitHook(h SubmitHook) { c.onSubmit = h }

// SetFaultHook installs a timing fault injector (nil to remove). The hook
// runs inside Submit before channel/bank state is updated and must not
// call back into the controller.
func (c *Controller) SetFaultHook(h FaultHook) { c.onFault = h }

// Utilization returns channel ch's data-bus utilization over [0, now] as
// a fraction in [0, 1].
func (c *Controller) Utilization(ch int, now uint64) float64 {
	if now == 0 {
		return 0
	}
	u := float64(c.chanBusy[ch]) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// RegisterMetrics registers controller counters and per-channel
// utilization gauges under "dram.". clock supplies the current simulated
// cycle (the utilization denominator); the hierarchy passes its pump
// cursor.
func (c *Controller) RegisterMetrics(reg *metrics.Registry, clock func() uint64) {
	reg.MustGauge("dram.demand_reads", func() float64 { return float64(c.stats.DemandReads) })
	reg.MustGauge("dram.prefetch_reads", func() float64 { return float64(c.stats.PrefetchReads) })
	reg.MustGauge("dram.writebacks", func() float64 { return float64(c.stats.Writebacks) })
	reg.MustGauge("dram.row_hits", func() float64 { return float64(c.stats.RowHits) })
	reg.MustGauge("dram.row_misses", func() float64 { return float64(c.stats.RowMisses) })
	reg.MustGauge("dram.traffic_bytes", func() float64 { return float64(c.TrafficBytes()) })
	for ch := 0; ch < c.cfg.Channels; ch++ {
		ch := ch
		reg.MustGauge(fmt.Sprintf("dram.chan%d.utilization", ch), func() float64 {
			return c.Utilization(ch, clock())
		})
	}
	reg.MustGauge("dram.utilization", func() float64 {
		now := clock()
		if now == 0 {
			return 0
		}
		var sum float64
		for ch := range c.chanBusy {
			sum += c.Utilization(ch, now)
		}
		return sum / float64(len(c.chanBusy))
	})
}

// RowOpen reports whether addr's row is currently open in its bank, which
// the prefetch queue may use to prefer open-page candidates.
func (c *Controller) RowOpen(addr uint64) bool {
	ch, bk, row := c.Map(addr)
	return c.banks[ch][bk].openRow == row
}

// Kind classifies a request for accounting.
type Kind uint8

// Request kinds.
const (
	Demand Kind = iota
	Prefetch
	Writeback
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Demand:
		return "demand"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Submit schedules a block transfer beginning no earlier than cycle now and
// returns the cycle at which the data has fully arrived (for reads) or been
// accepted (for writebacks). It updates channel, bank, and row state.
func (c *Controller) Submit(addr uint64, kind Kind, now uint64) (done uint64) {
	ch, bk, row := c.Map(addr)
	b := &c.banks[ch][bk]

	start := now
	if c.chanFree[ch] > start {
		start = c.chanFree[ch]
	}
	if b.freeAt > start {
		start = b.freeAt
	}

	var lat, busy uint64
	rowHit := b.openRow == row
	if rowHit {
		lat = c.cfg.RowHitCycles
		busy = c.cfg.BankBusyHit
		c.stats.RowHits++
	} else {
		lat = c.cfg.RowMissCycles
		busy = c.cfg.BankBusyMiss
		c.stats.RowMisses++
		b.openRow = row
	}
	if busy == 0 {
		busy = lat // uninitialized config: fall back to full serialization
	}
	if c.onFault != nil {
		extraLat, extraBusy := c.onFault(kind)
		lat += extraLat
		busy += extraBusy
	}

	done = start + lat + c.cfg.TransferCycles
	// The data bus is occupied for the transfer and the bank for its row
	// cycle; the rest of the latency overlaps with other requests.
	c.chanFree[ch] = start + c.cfg.TransferCycles
	b.freeAt = start + busy
	c.chanBusy[ch] += c.cfg.TransferCycles
	if c.onSubmit != nil {
		c.onSubmit(ch, bk, kind, start, b.freeAt, rowHit)
	}

	switch kind {
	case Demand:
		c.stats.DemandReads++
	case Prefetch:
		c.stats.PrefetchReads++
	case Writeback:
		c.stats.Writebacks++
	}
	return done
}

// TotalBlocks returns the total number of block transfers performed, the
// raw measure behind the paper's memory-traffic comparisons (Figure 12,
// Table 5).
func (c *Controller) TotalBlocks() uint64 {
	return c.stats.DemandReads + c.stats.PrefetchReads + c.stats.Writebacks
}

// TrafficBytes returns total traffic in bytes.
func (c *Controller) TrafficBytes() uint64 {
	return c.TotalBlocks() * uint64(c.cfg.BlockBytes)
}
