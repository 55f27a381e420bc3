package manager

import (
	"time"

	"stdchk/internal/metrics"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// opFlags are the properties of a manager op that handle acts on, so no
// handler spells them out itself.
type opFlags uint8

const (
	// gated ops are the mutating metadata ops the admission gate bounds:
	// each holds an admission slot from after its request decodes until
	// its response is built, and is shed with core.ErrRetryAfter when the
	// gate is full.
	gated opFlags = 1 << iota
	// timed ops sit on a checkpoint's critical path: their service time
	// (queueing excluded — the gate sheds instead of queueing) is observed
	// in the entry's latency histogram.
	timed
)

// opEntry is one row of the manager's op table.
type opEntry struct {
	flags opFlags
	// lat is the op's service-time histogram; only timed ops observe it.
	lat metrics.LatencyHistogram
	// serve decodes the request meta and runs the op under its flags.
	serve func(meta []byte) (wire.Resp, error)
}

// latency exports the entry's histogram in wire form.
func (e *opEntry) latency() proto.LatencyStats {
	count, sum, buckets := e.lat.Snapshot()
	return proto.LatencyStats{Count: count, SumMicros: sum, Buckets: buckets}
}

// on declares op: its request type (decoded by its own binary layout when
// it has one, as JSON otherwise; ops without a request take struct{}), its
// flags, and its handler. The decode, the admission enter/exit pairing
// and the latency observation live here and nowhere else.
func on[Req any](m *Manager, op string, flags opFlags, fn func(Req) (wire.Resp, error)) {
	e := &opEntry{flags: flags}
	e.serve = func(meta []byte) (wire.Resp, error) {
		var req Req
		if err := wire.UnmarshalMeta(meta, &req); err != nil {
			return wire.Resp{}, err
		}
		if e.flags&gated != 0 {
			if err := m.adm.enter(); err != nil {
				return wire.Resp{}, err
			}
			defer m.adm.exit()
		}
		if e.flags&timed != 0 {
			start := time.Now()
			defer func() { e.lat.Observe(time.Since(start)) }()
		}
		return fn(req)
	}
	m.ops[op] = e
}

// reply wraps a handler's typed answer as the response meta.
func reply(meta interface{}, err error) (wire.Resp, error) {
	if err != nil {
		return wire.Resp{}, err
	}
	return wire.Resp{Meta: meta}, nil
}

// registerOps builds the op table: every proto.M* op the manager serves
// is declared here, once (TestOpTableCoversEveryManagerOp holds it to
// that).
func (m *Manager) registerOps() {
	m.ops = make(map[string]*opEntry)
	on(m, proto.MRegister, 0, m.handleRegister)
	on(m, proto.MHeartbeat, 0, m.handleHeartbeat)
	on(m, proto.MAlloc, gated|timed, m.handleAlloc)
	on(m, proto.MExtend, gated, m.handleExtend)
	on(m, proto.MCommit, gated|timed, m.handleCommit)
	on(m, proto.MAbort, 0, m.handleAbort)
	on(m, proto.MHasChunks, 0, m.handleHasChunks)
	on(m, proto.MGetMap, 0, m.handleGetMap)
	on(m, proto.MGetMaps, 0, m.handleGetMaps)
	on(m, proto.MStatVersion, 0, m.handleStatVersion)
	on(m, proto.MDelete, 0, m.handleDelete)
	on(m, proto.MPolicySet, 0, m.handlePolicySet)
	on(m, proto.MGCReport, 0, m.handleGCReport)
	on(m, proto.MHistory, 0, func(req proto.HistoryReq) (wire.Resp, error) {
		m.stats.transactions.Add(1)
		m.stats.histories.Add(1)
		if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
			return wire.Resp{}, err
		}
		return reply(m.cat.history(req.Name))
	})
	on(m, proto.MDiff, 0, func(req proto.DiffReq) (wire.Resp, error) {
		m.stats.transactions.Add(1)
		m.stats.diffs.Add(1)
		if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
			return wire.Resp{}, err
		}
		return reply(m.cat.diff(req.Name, req.From, req.To))
	})
	on(m, proto.MStat, 0, func(req proto.StatReq) (wire.Resp, error) {
		if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
			return wire.Resp{}, err
		}
		info, err := m.cat.stat(req.Name, m.reg.online)
		return reply(proto.StatResp{Dataset: info}, err)
	})
	on(m, proto.MReplStatus, 0, func(req proto.ReplStatusReq) (wire.Resp, error) {
		if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
			return wire.Resp{}, err
		}
		return reply(m.cat.replStatus(req.Name, m.reg.online))
	})
	on(m, proto.MList, 0, func(req proto.ListReq) (wire.Resp, error) {
		return wire.Resp{Meta: proto.ListResp{Datasets: m.cat.list(req.Folder, m.reg.online)}}, nil
	})
	on(m, proto.MPolicyGet, 0, func(req proto.PolicyGetReq) (wire.Resp, error) {
		return wire.Resp{Meta: proto.PolicyGetResp{Policy: m.policies.get(req.Folder)}}, nil
	})
	on(m, proto.MPolicyDryRun, 0, func(req proto.PolicyDryRunReq) (wire.Resp, error) {
		return wire.Resp{Meta: m.policyDryRun(req, time.Now())}, nil
	})
	on(m, proto.MBenefactors, 0, func(struct{}) (wire.Resp, error) {
		return wire.Resp{Meta: proto.BenefactorsResp{Benefactors: m.reg.list()}}, nil
	})
	on(m, proto.MStats, 0, func(struct{}) (wire.Resp, error) {
		return wire.Resp{Meta: m.Stats()}, nil
	})
}

func (m *Manager) handleHeartbeat(req proto.HeartbeatReq) (wire.Resp, error) {
	if err := m.reg.heartbeat(req); err != nil {
		return wire.Resp{}, err
	}
	// Scrub reports: a quarantined replica leaves the chunk-map now, so
	// readers stop being routed to it and the repair scheduler sees the
	// chunk one replica short immediately.
	if len(req.Corrupt) > 0 {
		dropped := 0
		for _, id := range req.Corrupt {
			if m.cat.dropLocation(id, req.ID) {
				dropped++
			}
		}
		m.stats.repairCorrupt.Add(int64(len(req.Corrupt)))
		m.logf("benefactor %s reported %d corrupt chunks (%d locations dropped)", req.ID, len(req.Corrupt), dropped)
		m.kickRepair()
	}
	return wire.Resp{Meta: proto.HeartbeatResp{OK: true, Recovering: m.recovering.Load()}}, nil
}

func (m *Manager) handleHasChunks(req proto.HasReq) (wire.Resp, error) {
	m.stats.dedupBatches.Add(1)
	m.stats.dedupChunksQueried.Add(int64(len(req.IDs)))
	present := m.cat.hasChunks(req.IDs)
	var hits int64
	for _, p := range present {
		if p {
			hits++
		}
	}
	m.stats.dedupHits.Add(hits)
	return wire.Resp{Meta: proto.HasResp{Present: present}}, nil
}

func (m *Manager) handleGetMap(req proto.GetMapReq) (wire.Resp, error) {
	m.stats.transactions.Add(1)
	m.stats.getMaps.Add(1)
	if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
		return wire.Resp{}, err
	}
	name, cm, err := m.cat.getMap(req.Name, req.Version)
	return reply(proto.GetMapResp{Name: name, Map: cm}, err)
}

func (m *Manager) handleStatVersion(req proto.StatVersionReq) (wire.Resp, error) {
	m.stats.transactions.Add(1)
	m.stats.statVersions.Add(1)
	if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
		return wire.Resp{}, err
	}
	name, ds, ver, err := m.cat.statVersion(req.Name, req.AsOf)
	return reply(proto.StatVersionResp{Name: name, Dataset: ds, Version: ver}, err)
}

func (m *Manager) handlePolicySet(req proto.PolicySetReq) (wire.Resp, error) {
	if err := req.Policy.Validate(); err != nil {
		return wire.Resp{}, err
	}
	// Apply and journal under the policy-table lock so the update is
	// all-or-nothing (a journal failure reverts it) and a snapshot cut
	// can never split the pair.
	err := m.policies.setJournaled(req.Folder, req.Policy, m.policyJournalFn())
	return reply(proto.HeartbeatResp{OK: true}, err)
}
