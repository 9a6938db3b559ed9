package lockword

// Ticket encoding for the compact monitor table (internal/montable).
//
// Every fat lock rents its monitor from a compact monitor table, so the
// 56-bit field of an inflated word is a *table ticket* naming the entry
// that holds the monitor state:
//
//	bits  0..23  arena index within the shard (entries never move)
//	bits 24..31  shard number
//	bits 32..55  binding generation
//
// The generation is bumped every time the entry's binding is reclaimed, so
// a ticket read before a reclamation can never resolve to the entry's next
// binding: stale fat words fail the table's pin check instead of entering a
// recycled monitor (the ABA defense the montable tests and the
// monitor-identity oracle in internal/history lean on).
const (
	// TicketIndexBits is the width of the arena-index field.
	TicketIndexBits = 24
	// TicketShardBits is the width of the shard field (at most 256 shards).
	TicketShardBits = 8
	// TicketGenBits is the width of the binding-generation field.
	TicketGenBits = 24

	// TicketIndexMask selects the arena index of a ticket.
	TicketIndexMask uint64 = 1<<TicketIndexBits - 1
	// TicketShardMask selects the (shifted-down) shard number.
	TicketShardMask uint64 = 1<<TicketShardBits - 1
	// TicketGenMask selects the (shifted-down) generation.
	TicketGenMask uint64 = 1<<TicketGenBits - 1

	ticketShardShift = TicketIndexBits
	ticketGenShift   = TicketIndexBits + TicketShardBits
)

// Ticket packs (shard, index, gen) into a 56-bit table ticket. Arguments
// wider than their fields are masked down.
func Ticket(shard, index, gen uint32) uint64 {
	return uint64(gen)&TicketGenMask<<ticketGenShift |
		uint64(shard)&TicketShardMask<<ticketShardShift |
		uint64(index)&TicketIndexMask
}

// TicketShard extracts the shard number from a ticket.
func TicketShard(tk uint64) uint32 { return uint32(tk >> ticketShardShift & TicketShardMask) }

// TicketIndex extracts the arena index from a ticket.
func TicketIndex(tk uint64) uint32 { return uint32(tk & TicketIndexMask) }

// TicketGen extracts the binding generation from a ticket.
func TicketGen(tk uint64) uint32 { return uint32(tk >> ticketGenShift & TicketGenMask) }

// TicketWord encodes a ticket directly as an inflated lock word (the value
// a table-backed lock publishes at inflation).
func TicketWord(shard, index, gen uint32) uint64 {
	return InflatedWord(Ticket(shard, index, gen))
}
