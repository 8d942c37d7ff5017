package model

import "time"

// Costs holds the tunable base constants of the cost model, calibrated to
// a 1 GHz Pentium-III host, 133 MHz LANai 9.1 NIC and Myrinet-2000 wire
// unless noted. Per-node values are derived by scaling with the node's
// clock ratios (see CostModel). The defaults reproduce small-message GM
// one-way latencies of roughly 6–8 µs, in line with GM-over-Myrinet-2000
// measurements of the period.
type Costs struct {
	// Host side.
	HostCopyMBps    float64       // memcpy bandwidth at 1 GHz
	HostSendOvh     time.Duration // per-send library overhead at 1 GHz
	HostRecvOvh     time.Duration // per-receive library/matching overhead at 1 GHz
	ReducePerElem   time.Duration // arithmetic per double-word element at 1 GHz
	SignalOvh       time.Duration // kernel signal delivery + dispatch at 1 GHz
	SignalIgnored   time.Duration // trap cost of a signal found redundant (progress already ran)
	SignalDelay     time.Duration // latency from NIC raise to handler start (batches arrivals)
	PollIter        time.Duration // one pass of the progress-engine poll loop at 1 GHz
	PinBase         time.Duration // mlock-style syscall base cost (rendezvous)
	PinPerKB        time.Duration // incremental pinning cost per KB
	DescriptorOvh   time.Duration // build/enqueue one reduce descriptor at 1 GHz
	QueueSearchElem time.Duration // scan one queue entry during matching at 1 GHz

	// NIC side.
	NICPktOvh        time.Duration // LANai per-packet processing at 133 MHz
	NICComputeFactor float64       // LANai arithmetic slowdown vs a 1 GHz host (no FPU)

	// Interconnect.
	WireMBps   float64       // Myrinet-2000 link bandwidth (2 Gb/s)
	WireProp   time.Duration // cable propagation
	SwitchHop  time.Duration // crossbar cut-through latency
	MaxPayload int           // bytes per wire packet (GM MTU-ish)

	// Protocol.
	EagerThreshold int // bytes; larger messages use rendezvous
}

// DefaultCosts returns the calibrated base constants.
func DefaultCosts() Costs {
	return Costs{
		HostCopyMBps:     570,
		HostSendOvh:      900 * time.Nanosecond,
		HostRecvOvh:      900 * time.Nanosecond,
		ReducePerElem:    6 * time.Nanosecond,
		SignalOvh:        10 * time.Microsecond,
		SignalIgnored:    5 * time.Microsecond,
		SignalDelay:      6 * time.Microsecond,
		PollIter:         150 * time.Nanosecond,
		PinBase:          25 * time.Microsecond,
		PinPerKB:         700 * time.Nanosecond,
		DescriptorOvh:    500 * time.Nanosecond,
		QueueSearchElem:  40 * time.Nanosecond,
		NICPktOvh:        2000 * time.Nanosecond,
		NICComputeFactor: 16,
		WireMBps:         250, // 2 Gb/s
		WireProp:         300 * time.Nanosecond,
		SwitchHop:        500 * time.Nanosecond,
		MaxPayload:       4096,
		EagerThreshold:   16 * 1024,
	}
}

// costModel is the one cost model of a hardware class: the node's spec,
// the cluster's base constants, and everything derivable once from that
// pair — clock scale factors, per-byte rates, and the fixed overheads
// already scaled to the node's clocks — so the hot-path cost queries do
// no division. Nodes with identical hardware share one (see
// SharedCostModels): a homogeneous 16384-node cluster builds one, not
// 16384, and a paper-mix cluster of any size builds three.
//
// No field is exported and nothing writes one after NewCostModel
// returns, so the handles sharing a model can never carry a write from
// one node to another. The derived values sit inline ahead of the base
// constants: any constant is one dependent load from a handle.
//
// Every derived value is computed by exactly the expression the
// corresponding CostModel method used to evaluate per call, in the same
// operation order, so precomputation cannot move a result by even one
// float-rounding step: simulations stay byte-identical.
type costModel struct {
	cpuScale   float64 // host-cost multiplier vs the 1 GHz calibration
	lanaiScale float64 // NIC-cost multiplier vs the 133 MHz calibration

	hostCopyPerByte float64 // ns per copied byte before host scaling
	pciPerByte      float64 // ns per byte of NIC DMA across this node's PCI bus
	wirePerByte     float64 // ns per byte of link serialization
	pinPerKBf       float64 // PinPerKB as float ns

	hostSendOvh   time.Duration
	hostRecvOvh   time.Duration
	signalOvh     time.Duration
	signalIgnored time.Duration
	pollIter      time.Duration
	descriptorOvh time.Duration
	nicPktOvh     time.Duration

	spec NodeSpec
	c    Costs
}

// CostModel binds the global cost constants to one node's hardware and
// answers "how long does operation X take on this node" in virtual time.
// It is an 8-byte handle to an immutable model shared by every node of
// the same hardware class, so per-node stores (NIC, memory registry, MPI
// process, flow machine) hold a pointer, never a copy of the constants.
type CostModel struct{ p *costModel }

// NewCostModel builds a cost model for one node's hardware.
func NewCostModel(spec NodeSpec, c Costs) CostModel {
	cpu, lanai := spec.cpuScale(), spec.lanaiScale()
	return CostModel{&costModel{
		cpuScale:        cpu,
		lanaiScale:      lanai,
		hostCopyPerByte: float64(time.Second) / (c.HostCopyMBps * 1e6),
		pciPerByte:      float64(time.Second) / (spec.PCIMBps * 1e6),
		wirePerByte:     float64(time.Second) / (c.WireMBps * 1e6),
		pinPerKBf:       float64(c.PinPerKB),
		hostSendOvh:     dur(c.HostSendOvh, cpu),
		hostRecvOvh:     dur(c.HostRecvOvh, cpu),
		signalOvh:       dur(c.SignalOvh, cpu),
		signalIgnored:   dur(c.SignalIgnored, cpu),
		pollIter:        dur(c.PollIter, cpu),
		descriptorOvh:   dur(c.DescriptorOvh, cpu),
		nicPktOvh:       dur(c.NICPktOvh, lanai),
		spec:            spec,
		c:               c,
	}}
}

// SharedCostModels returns one cost model per node, one model per
// distinct NodeSpec in specs: nodes with equal specs get the identical
// handle, however many nodes carry it. The deduplication is local to the
// call, so every caller (every cluster) owns the models it gets.
func SharedCostModels(specs []NodeSpec, c Costs) []CostModel {
	cache := make(map[NodeSpec]CostModel, 4)
	out := make([]CostModel, len(specs))
	for i, s := range specs {
		cm, ok := cache[s]
		if !ok {
			cm = NewCostModel(s, c)
			cache[s] = cm
		}
		out[i] = cm
	}
	return out
}

// Spec returns the hardware the model was built for.
func (m CostModel) Spec() NodeSpec { return m.p.spec }

// EagerThreshold returns the largest message size, in bytes, sent
// eagerly; larger messages use rendezvous.
func (m CostModel) EagerThreshold() int { return m.p.c.EagerThreshold }

// SignalDelay returns the latency from a NIC raising a signal to its
// handler starting (it batches arrivals).
func (m CostModel) SignalDelay() time.Duration { return m.p.c.SignalDelay }

// HostCopy returns the time for the host CPU to copy n bytes.
func (m CostModel) HostCopy(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return dur(time.Duration(m.p.hostCopyPerByte*float64(n)), m.p.cpuScale)
}

// HostSendOvh returns the per-send host library overhead.
func (m CostModel) HostSendOvh() time.Duration { return m.p.hostSendOvh }

// HostRecvOvh returns the per-receive host matching overhead.
func (m CostModel) HostRecvOvh() time.Duration { return m.p.hostRecvOvh }

// ReduceOp returns the time to combine n elements of size elemSize bytes
// with an arithmetic reduction operator.
func (m CostModel) ReduceOp(n, elemSize int) time.Duration {
	per := float64(m.p.c.ReducePerElem) * float64(elemSize) / 8.0
	return dur(time.Duration(per*float64(n)), m.p.cpuScale)
}

// SignalOvh returns the cost of one NIC-raised signal reaching the
// application: kernel trap, handler dispatch, cache disturbance.
func (m CostModel) SignalOvh() time.Duration { return m.p.signalOvh }

// SignalIgnoredOvh returns the trap cost of a signal whose handler finds
// nothing to do because progress was already underway (§V-C: "if a signal
// happens to occur while progress is already underway, it is simply
// ignored" — the kernel still delivered it).
func (m CostModel) SignalIgnoredOvh() time.Duration { return m.p.signalIgnored }

// PollIter returns the cost of one idle pass of the progress engine's
// poll loop; blocking receives burn this continuously.
func (m CostModel) PollIter() time.Duration { return m.p.pollIter }

// Pin returns the cost of registering n bytes for DMA (rendezvous mode).
func (m CostModel) Pin(n int) time.Duration {
	return m.p.c.PinBase + time.Duration(m.p.pinPerKBf*float64(n)/1024)
}

// DescriptorOvh returns the cost of building and enqueuing one
// application-bypass reduce descriptor.
func (m CostModel) DescriptorOvh() time.Duration { return m.p.descriptorOvh }

// QueueSearch returns the cost of scanning n queue entries while
// matching a message.
func (m CostModel) QueueSearch(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return dur(time.Duration(int64(m.p.c.QueueSearchElem)*int64(n)), m.p.cpuScale)
}

// NICPkt returns the LANai control-program time to process one packet of
// n payload bytes, including the PCI DMA between host and NIC memory.
func (m CostModel) NICPkt(n int) time.Duration {
	dma := time.Duration(0)
	if n > 0 {
		dma = time.Duration(m.p.pciPerByte * float64(n))
	}
	return m.p.nicPktOvh + dma
}

// NICReduceOp returns the LANai control program's time to combine n
// elements of size elemSize. The LANai has no floating-point unit, so
// arithmetic runs NICComputeFactor times slower than on a 1 GHz host,
// further scaled by the NIC clock.
func (m CostModel) NICReduceOp(n, elemSize int) time.Duration {
	per := float64(m.p.c.ReducePerElem) * float64(elemSize) / 8.0 * m.p.c.NICComputeFactor
	return dur(time.Duration(per*float64(n)), m.p.lanaiScale)
}

// WireTime returns link serialization plus propagation for n bytes on
// one hop (switch latency is charged separately by the fabric).
func (m CostModel) WireTime(n int) time.Duration {
	return m.p.c.WireProp + time.Duration(m.p.wirePerByte*float64(n))
}
