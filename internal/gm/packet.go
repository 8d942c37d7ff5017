// Package gm rebuilds the GM user-level message-passing layer the paper
// runs on: a programmable NIC (the LANai "control program") reachable
// from user space without kernel involvement, send/receive tokens,
// registered (pinned) memory, and — the paper's §V-A modification — a
// collective packet type for which the NIC can raise a host signal while
// signals are enabled.
package gm

// PacketType distinguishes GM wire packets. Eager, RTS, CTS and Data
// implement the two MPICH-over-GM send modes (§III); Collective is the
// packet type the paper adds for application-bypass messages (§V-A).
type PacketType uint8

const (
	// Eager carries a complete small message copied through pre-pinned
	// bounce buffers.
	Eager PacketType = iota
	// RendezvousRTS announces a large message pinned in place at the
	// sender.
	RendezvousRTS
	// RendezvousCTS tells the sender the receive buffer is pinned and
	// the transfer may proceed.
	RendezvousCTS
	// RendezvousData carries the body of a rendezvous message.
	RendezvousData
	// Collective marks application-bypass collective traffic: the only
	// packet type for which the NIC raises a signal (§V-A).
	Collective
	// CollectiveRTS and CollectiveData extend the collective type to
	// rendezvous-sized payloads — the rendezvous-mode application
	// bypass the paper left as future work (§V-B: "We have not yet
	// investigated a rendezvous-mode implementation"). Both raise host
	// signals like Collective, so a parent computing through a late
	// large child still reacts asynchronously at every protocol step.
	CollectiveRTS
	CollectiveCTS
	CollectiveData
	// NICCollective marks traffic of the NIC-based reduction extension
	// (§VII future work, refs [9–11]): the LANai control program itself
	// combines contributions, so these packets are consumed by NIC
	// firmware and, except for final results, never reach the host.
	NICCollective
	// RelAck is a standalone cumulative acknowledgment of the
	// reliability protocol (NIC.Reset(true)). It is unsequenced,
	// consumed entirely inside the receiving NIC, and only sent when no
	// reverse data traffic piggybacked the ack first.
	RelAck
)

// String implements fmt.Stringer for diagnostics.
func (t PacketType) String() string {
	switch t {
	case Eager:
		return "eager"
	case RendezvousRTS:
		return "rts"
	case RendezvousCTS:
		return "cts"
	case RendezvousData:
		return "data"
	case Collective:
		return "collective"
	case CollectiveRTS:
		return "collective-rts"
	case CollectiveCTS:
		return "collective-cts"
	case CollectiveData:
		return "collective-data"
	case NICCollective:
		return "nic-collective"
	case RelAck:
		return "rel-ack"
	}
	return "unknown"
}

// HeaderBytes is the wire overhead charged per packet (GM header plus the
// MPICH envelope). The flow engine charges the same per frame, so flow
// transfer times line up with packet-mode serialization byte for byte.
const HeaderBytes = 48

// Packet is a GM message. The envelope fields (Ctx, Tag, SrcRank) belong
// to the MPI layer; the collective header (Root, Seq) is the paper's
// addition, used by the asynchronous reduction logic to identify the
// reduction instance a late message belongs to (§IV-D) and to let the
// progress engine detect "current process is the root" (Fig. 4).
type Packet struct {
	Type             PacketType
	SrcNode, DstNode int

	// MPI envelope.
	Ctx     uint16
	Tag     int32
	SrcRank int32

	// Collective header.
	Root int32
	Seq  uint64

	// Rendezvous protocol fields.
	Handle   uint64 // matches CTS/Data to the posted rendezvous
	TotalLen int    // full message length announced by an RTS

	// NIC-based reduction fields: the firmware needs the operator and
	// element type to combine contributions in NIC memory.
	AuxOp uint8
	AuxDT uint8

	// Reliability header (NIC.Reset(true)): per-link sequence number
	// (0 = unsequenced), piggybacked cumulative ack, and how many
	// retransmit rounds this copy has been through — nonzero Retries
	// lets the MPI progress engine count messages the fabric made it
	// wait for.
	RelSeq  uint64
	RelAck  uint64
	Retries uint8

	// Data is the payload as it sits in NIC / bounce-buffer memory.
	Data []byte

	// owner is the NIC pool the packet was allocated from (GetPacket);
	// PutPacket recycles into it so pools stay balanced even when
	// traffic is asymmetric (a leaf sends constantly but receives
	// almost nothing). Packets built as plain literals keep the zero
	// value and pass through PutPacket untouched, so a consumer can
	// release unconditionally.
	owner *NIC
}

// WireSize returns the bytes the packet occupies on the link.
func (pkt *Packet) WireSize() int { return HeaderBytes + len(pkt.Data) }

// IsCollective reports whether the packet belongs to the
// application-bypass family for which the NIC may raise signals.
func (pkt *Packet) IsCollective() bool {
	switch pkt.Type {
	case Collective, CollectiveRTS, CollectiveCTS, CollectiveData:
		return true
	}
	return false
}
