package grid

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// startOverloadPlane builds the smallest traffic plane that can overload:
// a 1-member federation with a tiny admission bound, a shared-connection
// router, and one fake benefactor so allocs have somewhere to stripe.
func startOverloadPlane(t *testing.T, maxPending int, hint time.Duration) ([]*manager.Manager, []string, *federation.Router) {
	t.Helper()
	mgrs, members, err := manager.NewFederation(1, manager.Config{
		HeartbeatInterval:   time.Hour,
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
		MaxPendingOps:       maxPending,
		RetryAfterHint:      hint,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Close()
		}
	})
	router, err := federation.NewRouter(federation.RouterConfig{
		Members:        members,
		SharedConns:    true,
		PerMemberConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	if _, err := router.Register(proto.RegisterReq{
		ID: "ovl0:1", Addr: "ovl0:1", Capacity: 1 << 40, Free: 1 << 40,
	}); err != nil {
		t.Fatal(err)
	}
	return mgrs, members, router
}

// rawCheckpoint drives one full checkpoint (alloc/extend/commit/getmap)
// over a plain serial connection with NO retry policy — the probe that
// sees the manager's typed shed verbatim.
func rawCheckpoint(conn *wire.Conn, name string, seed int64, chunks int, chunkSize int64) error {
	var alloc proto.AllocResp
	if _, err := conn.Call(proto.MAlloc, proto.AllocReq{
		Name: name, StripeWidth: 1, ChunkSize: chunkSize,
		ReserveBytes: int64(chunks) * chunkSize, Replication: 1,
	}, nil, &alloc); err != nil {
		return err
	}
	locs := make([]core.NodeID, 0, len(alloc.Stripe))
	for _, st := range alloc.Stripe {
		locs = append(locs, st.ID)
	}
	_, commit, fileSize := manager.BuildCheckpoint(seed, 0, chunks, chunkSize, false, locs)
	if _, err := conn.Call(proto.MCommit, proto.CommitReq{
		WriteID: alloc.WriteID, FileSize: fileSize, Chunks: commit,
	}, nil, &proto.CommitResp{}); err != nil {
		return err
	}
	_, err := conn.Call(proto.MGetMap, proto.GetMapReq{Name: name}, nil, &proto.GetMapResp{})
	return err
}

// TestOverloadShedsTypedRetryAfter is the grid-level acceptance test for
// the admission plane: with the single admission slot held by a commit
// stalled at the manager.commit.publish faultpoint,
//
//   - a raw client with no retry policy gets the typed core.ErrRetryAfter
//     across the wire, with the manager's configured hint intact;
//   - a retry-after-honoring client (the federation router) started during
//     the same overload backs off per the hint and completes — overload
//     means delay, never failure or hang;
//   - the manager's queue depth never exceeds the configured bound, and
//     the shed is visible in its counters.
func TestOverloadShedsTypedRetryAfter(t *testing.T) {
	defer faultpoint.Reset()
	const (
		maxPending = 1
		// The router retries a shed op with hint*attempt backoff; the
		// cumulative budget (100+200+250ms) must comfortably outlast the
		// hold so the honoring client always rides through.
		hint      = 100 * time.Millisecond
		holdFor   = 250 * time.Millisecond
		chunkSize = int64(4 << 10)
		chunks    = 4
	)
	mgrs, members, router := startOverloadPlane(t, maxPending, hint)

	// Every commit now stalls inside publish while still holding its
	// admission slot — the controllable stand-in for a saturated manager.
	if err := faultpoint.Enable("manager.commit.publish", faultpoint.Config{
		Mode: faultpoint.ModeDelay, Delay: holdFor,
	}); err != nil {
		t.Fatal(err)
	}

	// The holder runs alloc up front (admission slot held only briefly),
	// signals, then commits — so once holderReady fires, the next gated
	// op seen by the manager is the stalled commit and nothing else.
	holderConn, err := wire.Dial(members[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer holderConn.Close()
	var alloc proto.AllocResp
	if _, err := holderConn.Call(proto.MAlloc, proto.AllocReq{
		Name: "ovl.n0.t0", StripeWidth: 1, ChunkSize: chunkSize,
		ReserveBytes: int64(chunks) * chunkSize, Replication: 1,
	}, nil, &alloc); err != nil {
		t.Fatal(err)
	}
	locs := make([]core.NodeID, 0, len(alloc.Stripe))
	for _, st := range alloc.Stripe {
		locs = append(locs, st.ID)
	}
	_, commit, fileSize := manager.BuildCheckpoint(1, 0, chunks, chunkSize, false, locs)
	holderDone := make(chan error, 1)
	go func() {
		_, err := holderConn.Call(proto.MCommit, proto.CommitReq{
			WriteID: alloc.WriteID, FileSize: fileSize, Chunks: commit,
		}, nil, &proto.CommitResp{})
		holderDone <- err
	}()

	// Wait until the stalled commit actually occupies the slot.
	deadline := time.Now().Add(5 * time.Second)
	for mgrs[0].Stats().Admission.QueueDepth < maxPending {
		if time.Now().After(deadline) {
			t.Fatal("stalled commit never occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A retry-less probe must be shed with the typed error, not queued.
	probeConn, err := wire.Dial(members[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer probeConn.Close()
	_, probeErr := probeConn.Call(proto.MAlloc, proto.AllocReq{
		Name: "ovl.n1.t0", StripeWidth: 1, ChunkSize: chunkSize,
		ReserveBytes: chunkSize, Replication: 1,
	}, nil, &proto.AllocResp{})
	if probeErr == nil {
		t.Fatal("probe alloc admitted past a full queue")
	}
	var ra core.ErrRetryAfter
	if !errors.As(probeErr, &ra) {
		t.Fatalf("probe error is not typed retry-after: %v", probeErr)
	}
	if ra.Delay != hint {
		t.Fatalf("retry-after hint %v crossed the wire as %v", hint, ra.Delay)
	}
	if !errors.Is(probeErr, core.ErrRetryAfter{}) {
		t.Fatalf("errors.Is(err, ErrRetryAfter{}) false for %v", probeErr)
	}
	if !strings.Contains(probeErr.Error(), "retry after") {
		t.Fatalf("shed error unreadable: %v", probeErr)
	}
	// A shed is NOT a transport fault: nothing should tell the caller to
	// blindly re-dial, only to back off.
	if errors.Is(probeErr, core.ErrRetryable) {
		t.Fatalf("typed shed classified as transport-retryable: %v", probeErr)
	}

	// The router honors the hint: a checkpoint launched while the slot is
	// still held backs off and lands once the holder drains.
	routerDone := make(chan error, 1)
	go func() {
		routerDone <- driveOverloadRouterCheckpoint(router, "ovl.n2.t0", chunks, chunkSize)
	}()

	select {
	case err := <-holderDone:
		if err != nil {
			t.Fatalf("holder commit failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("holder commit hung")
	}
	select {
	case err := <-routerDone:
		if err != nil {
			t.Fatalf("retrying client failed under overload: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retrying client hung under overload")
	}

	st := mgrs[0].Stats()
	if st.Admission.Shed < 1 {
		t.Fatalf("no shed recorded: %+v", st.Admission)
	}
	if st.Admission.PeakQueueDepth > maxPending {
		t.Fatalf("peak queue depth %d exceeds bound %d", st.Admission.PeakQueueDepth, maxPending)
	}
	if st.Admission.MaxPending != maxPending || st.Admission.Admitted <= 0 {
		t.Fatalf("implausible admission stats: %+v", st.Admission)
	}
	if st.Admission.RetryAfterMicros != hint.Microseconds() {
		t.Fatalf("stats advertise hint %dµs, configured %v", st.Admission.RetryAfterMicros, hint)
	}
}

// driveOverloadRouterCheckpoint is the retry-after-honoring client: the
// federation router's calls back off on typed sheds internally.
func driveOverloadRouterCheckpoint(r *federation.Router, name string, chunks int, chunkSize int64) error {
	var alloc proto.AllocResp
	if err := r.Call(proto.MAlloc, name, &proto.AllocReq{
		Name: name, StripeWidth: 1, ChunkSize: chunkSize,
		ReserveBytes: int64(chunks) * chunkSize, Replication: 1,
	}, &alloc); err != nil {
		return fmt.Errorf("alloc: %w", err)
	}
	locs := make([]core.NodeID, 0, len(alloc.Stripe))
	for _, st := range alloc.Stripe {
		locs = append(locs, st.ID)
	}
	_, commit, fileSize := manager.BuildCheckpoint(2, 0, chunks, chunkSize, false, locs)
	if err := r.Call(proto.MCommit, name, &proto.CommitReq{
		WriteID: alloc.WriteID, FileSize: fileSize, Chunks: commit,
	}, &proto.CommitResp{}); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if err := r.Call(proto.MGetMap, name, &proto.GetMapReq{Name: name}, &proto.GetMapResp{}); err != nil {
		return fmt.Errorf("getmap: %w", err)
	}
	return nil
}

// TestOverloadUnboundedBaseline pins the ablation contrast at the grid
// level: with MaxPendingOps zero the gate admits everything — no sheds,
// no typed errors — while the depth accounting still runs.
func TestOverloadUnboundedBaseline(t *testing.T) {
	defer faultpoint.Reset()
	const (
		chunkSize = int64(4 << 10)
		chunks    = 4
	)
	mgrs, members, _ := startOverloadPlane(t, 0, 0)
	if err := faultpoint.Enable("manager.commit.publish", faultpoint.Config{
		Mode: faultpoint.ModeDelay, Delay: 30 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// Several concurrent slow checkpoints: all must be admitted.
	const writers = 4
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			conn, err := wire.Dial(members[0], nil)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			done <- rawCheckpoint(conn, fmt.Sprintf("ovlu.n%d.t0", w), int64(10+w), chunks, chunkSize)
		}(w)
	}
	for w := 0; w < writers; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("unbounded writer failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("unbounded writer hung")
		}
	}

	st := mgrs[0].Stats()
	if st.Admission.Shed != 0 || st.Admission.ConnShed != 0 {
		t.Fatalf("unbounded gate shed traffic: %+v", st.Admission)
	}
	if st.Admission.MaxPending != 0 {
		t.Fatalf("unbounded gate advertises a bound: %+v", st.Admission)
	}
	if st.Admission.Admitted < writers {
		t.Fatalf("admitted %d < %d writers: %+v", st.Admission.Admitted, writers, st.Admission)
	}
	if st.Admission.PeakQueueDepth < 1 {
		t.Fatalf("depth accounting dead: %+v", st.Admission)
	}
}
