package mpsim

// RankStats counts the traffic one simulated process generated and
// consumed.  The network-fault counters stay zero on a perfect
// network: Drops are charged to the rank whose transmission was lost
// (a packet's sender, or an ack's acker), Retransmits to the sender,
// DupsDiscarded and CorruptDiscarded to the receiver, Timeouts to the
// process whose deadline expired, and FailedSends to a sender whose
// peer the reliable transport abandoned.
type RankStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64

	Drops            int64
	Retransmits      int64
	DupsDiscarded    int64
	CorruptDiscarded int64
	Timeouts         int64
	FailedSends      int64
}

// Stats accumulates the observable outcome of a simulated run.
type Stats struct {
	// Machine names the cost model profile used.
	Machine string
	// MakespanSeconds is the largest final virtual clock over all
	// processes: the virtual wall-clock time of the run.
	MakespanSeconds float64
	// PerRank has one entry per world rank.
	PerRank []RankStats
	// Trace holds the event record when Config.Trace was set; nil
	// otherwise.
	Trace *Trace
	// Crashes is the run's crash-fault history (Config.Crash), ordered
	// by crash time; empty without a crash plan.
	Crashes []CrashRecord
}

// TotalMsgs returns the total number of messages sent during the run.
func (s *Stats) TotalMsgs() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].MsgsSent
	}
	return n
}

// TotalBytes returns the total payload bytes sent during the run.
func (s *Stats) TotalBytes() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].BytesSent
	}
	return n
}

// TotalRetransmits returns the total retransmissions over the run, the
// chaos harness's "bounded recovery effort" metric.
func (s *Stats) TotalRetransmits() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].Retransmits
	}
	return n
}

// TotalDrops returns the total transmissions lost to fault injection.
func (s *Stats) TotalDrops() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].Drops
	}
	return n
}
