// Command stdchk is the client CLI: store, retrieve, list, diff and
// manage checkpoint files in a stdchk pool. Each subcommand owns its
// flags; the connection flag -manager is shared by all of them and
// comes after the subcommand name.
//
// Usage:
//
//	stdchk write -manager host:9400 app.n1.t0 < image.ckpt
//	stdchk read -manager host:9400 app.n1 > image.ckpt
//	stdchk read -manager host:9400 -version 3 app.n1 > old.ckpt
//	stdchk read -manager host:9400 -as-of 2026-08-01T12:00:00Z app.n1
//	stdchk restore -manager host:9400 -baseline old.ckpt -baseline-version 3 app.n1 > image.ckpt
//	stdchk history -manager host:9400 app.n1
//	stdchk diff -manager host:9400 -from 3 -to 5 app.n1
//	stdchk ls -manager host:9400 [folder]
//	stdchk stat -manager host:9400 app.n1
//	stdchk rm -manager host:9400 app.n1
//	stdchk policy -manager host:9400 app replace
//	stdchk policy -manager host:9400 -keep-last 4 -keep-hourly 24 app
//	stdchk policy -manager host:9400 -dry-run [app]
//	stdchk benefactors -manager host:9400
//	stdchk stats -manager host:9400
//
// A comma-separated -manager list selects a federated metadata plane;
// every subcommand then routes dataset-scoped calls to the partition
// owner.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stdchk:", err)
		os.Exit(1)
	}
}

const usage = "usage: stdchk <write|read|restore|history|diff|ls|stat|rm|policy|benefactors|stats> [flags] ..."

// connOpts are the connection flags every subcommand shares.
type connOpts struct {
	manager *string
}

// connFlags registers the shared connection flags on a subcommand's
// FlagSet — one registrar, so a new connection knob cannot reach some
// subcommands and silently miss others.
func connFlags(fs *flag.FlagSet) *connOpts {
	return &connOpts{
		manager: fs.String("manager", "127.0.0.1:9400", "manager address, or comma-separated federation member list"),
	}
}

// connect builds the client from a base config (write flags may have
// filled parts of it) plus the shared connection flags.
func (o *connOpts) connect(cfg client.Config) (*client.Client, error) {
	cfg.ManagerAddr = *o.manager
	return client.New(cfg)
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "write":
		return cmdWrite(rest)
	case "read":
		return cmdRead(rest)
	case "restore":
		return cmdRestore(rest)
	case "history":
		return cmdHistory(rest)
	case "diff":
		return cmdDiff(rest)
	case "ls":
		return cmdLs(rest)
	case "stat":
		return cmdStat(rest)
	case "rm":
		return cmdRm(rest)
	case "policy":
		return cmdPolicy(rest)
	case "benefactors":
		return cmdBenefactors(rest)
	case "stats":
		return cmdStats(rest)
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

func cmdWrite(args []string) error {
	fs := flag.NewFlagSet("stdchk write", flag.ContinueOnError)
	conn := connFlags(fs)
	var (
		width       = fs.Int("stripe", 0, "stripe width (0 = manager default)")
		replication = fs.Int("replication", 0, "replication target (0 = manager default)")
		pessimistic = fs.Bool("pessimistic", false, "wait for the replication target before write returns")
		incremental = fs.Bool("incremental", false, "enable compare-by-hash dedup against stored chunks")
		protocol    = fs.String("protocol", "sliding-window", "write protocol: sliding-window | incremental | complete-local")
		chunking    = fs.String("chunking", "fixed", "chunk boundaries: fixed | cbch (content-based, dedups shifted content)")
		writer      = fs.String("writer", "", "writer identity stamped on the committed version (shown in history)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stdchk write [flags] <name> (reads stdin)")
	}
	cfg := client.Config{
		StripeWidth: *width,
		Replication: *replication,
		Incremental: *incremental,
		Writer:      *writer,
	}
	if *pessimistic {
		cfg.Semantics = core.WritePessimistic
	}
	switch *protocol {
	case "sliding-window":
		cfg.Protocol = client.SlidingWindow
	case "incremental":
		cfg.Protocol = client.IncrementalWrite
	case "complete-local":
		cfg.Protocol = client.CompleteLocalWrite
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	switch *chunking {
	case "fixed":
		cfg.Chunking = client.ChunkFixed
	case "cbch":
		cfg.Chunking = client.ChunkCbCH
	default:
		return fmt.Errorf("unknown chunking %q", *chunking)
	}
	cl, err := conn.connect(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	name := fs.Arg(0)
	w, err := cl.Create(name)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, os.Stdin); err != nil {
		// Close and Wait repeat err; they run so the failed session is
		// aborted and its reservation released now, not at its TTL.
		_ = w.Close()
		_ = w.Wait()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := w.Wait(); err != nil {
		return err
	}
	m := w.Metrics()
	fmt.Fprintf(os.Stderr, "stored %s: %d bytes (%.1f MB/s OAB, %.1f MB/s ASB, %d deduped)\n",
		name, m.Bytes, m.OABMBps(), m.ASBMBps(), m.Deduped)
	return nil
}

// openOptions assembles the read-side version selector shared by read
// and restore from their flags.
func openOptions(version int64, asOf string) (client.OpenOptions, error) {
	var opt client.OpenOptions
	opt.Version = core.VersionID(version)
	if asOf != "" {
		t, err := time.Parse(time.RFC3339, asOf)
		if err != nil {
			return opt, fmt.Errorf("bad -as-of %q (want RFC3339): %w", asOf, err)
		}
		opt.AsOf = t
	}
	return opt, nil
}

func cmdRead(args []string) error {
	fs := flag.NewFlagSet("stdchk read", flag.ContinueOnError)
	conn := connFlags(fs)
	var (
		version = fs.Int64("version", 0, "open this committed version (0 = latest)")
		asOf    = fs.String("as-of", "", "open the newest version committed at or before this RFC3339 instant")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stdchk read [flags] <name> (writes stdout)")
	}
	opt, err := openOptions(*version, *asOf)
	if err != nil {
		return err
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	r, err := cl.Open(fs.Arg(0), opt)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = io.Copy(os.Stdout, r)
	return err
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("stdchk restore", flag.ContinueOnError)
	conn := connFlags(fs)
	var (
		version  = fs.Int64("version", 0, "restore this committed version (0 = latest)")
		asOf     = fs.String("as-of", "", "restore the newest version committed at or before this RFC3339 instant")
		baseline = fs.String("baseline", "", "local file holding the baseline version's bytes (required)")
		baseVer  = fs.Int64("baseline-version", 0, "which committed version the baseline file holds (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *baseline == "" || *baseVer == 0 {
		return fmt.Errorf("usage: stdchk restore [flags] -baseline <file> -baseline-version <n> <name> (writes stdout)")
	}
	opt, err := openOptions(*version, *asOf)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	opt.Baseline = core.VersionID(*baseVer)
	opt.BaselineData = data
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	r, err := cl.Open(fs.Arg(0), opt)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := io.Copy(os.Stdout, r); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "restored %s: %d bytes fetched, %d bytes reused from baseline v%d\n",
		r.Name(), r.BytesFetched(), r.BytesLocal(), *baseVer)
	return nil
}

func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("stdchk history", flag.ContinueOnError)
	conn := connFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stdchk history [flags] <name>")
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	hist, err := cl.History(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("dataset id %d (folder %s): %d versions\n", hist.Dataset, hist.Folder, len(hist.Versions))
	for _, v := range hist.Versions {
		writer := v.Writer
		if writer == "" {
			writer = "-"
		}
		fmt.Printf("  v%-4d %-28s %12d bytes  chunks=%-5d shared=%d (%d bytes)  new=%d  writer=%-12s %s\n",
			v.Version, v.Name, v.FileSize, v.Chunks, v.SharedChunks, v.SharedBytes,
			v.NewBytes, writer, v.CommittedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("stdchk diff", flag.ContinueOnError)
	conn := connFlags(fs)
	var (
		from = fs.Int64("from", 0, "older version of the pair (required)")
		to   = fs.Int64("to", 0, "newer version of the pair (0 = latest)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *from == 0 {
		return fmt.Errorf("usage: stdchk diff [flags] -from <version> [-to <version>] <name>")
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	d, err := cl.Diff(fs.Arg(0), core.VersionID(*from), core.VersionID(*to))
	if err != nil {
		return err
	}
	fmt.Printf("diff v%d (%d bytes) -> v%d (%d bytes): %d changed bytes in %d ranges\n",
		d.From, d.FromSize, d.To, d.ToSize, d.DiffBytes, len(d.Ranges))
	for _, rg := range d.Ranges {
		fmt.Printf("  [%12d, %12d)  %d bytes\n", rg.Offset, rg.Offset+rg.Length, rg.Length)
	}
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("stdchk ls", flag.ContinueOnError)
	conn := connFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	folder := ""
	if fs.NArg() > 0 {
		folder = fs.Arg(0)
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	infos, err := cl.List(folder)
	if err != nil {
		return err
	}
	for _, info := range infos {
		latest := "-"
		var size int64
		if n := len(info.Versions); n > 0 {
			latest = info.Versions[n-1].Name
			size = info.Versions[n-1].FileSize
		}
		fmt.Printf("%-32s versions=%d latest=%s (%d bytes)\n",
			info.Name, len(info.Versions), latest, size)
	}
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stdchk stat", flag.ContinueOnError)
	conn := connFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stdchk stat [flags] <name>")
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	info, err := cl.Stat(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s (folder %s, id %d)\n", info.Name, info.Folder, info.ID)
	for _, v := range info.Versions {
		fmt.Printf("  v%-4d %-28s %12d bytes  repl=%d  new=%d  %s\n",
			v.Version, v.Name, v.FileSize, v.Replication, v.StoredBytes,
			v.CreatedAt.Format(time.RFC3339))
	}
	return nil
}

func cmdRm(args []string) error {
	fs := flag.NewFlagSet("stdchk rm", flag.ContinueOnError)
	conn := connFlags(fs)
	version := fs.Int64("version", 0, "remove only this version (0 = whole dataset)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stdchk rm [flags] <name>")
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.Delete(fs.Arg(0), core.VersionID(*version))
}

func cmdPolicy(args []string) error {
	fs := flag.NewFlagSet("stdchk policy", flag.ContinueOnError)
	conn := connFlags(fs)
	var (
		keepLast   = fs.Int("keep-last", 0, "retention: keep the N most recent versions (0 = no keep-last schedule)")
		keepHourly = fs.Int("keep-hourly", 0, "retention: keep the newest version of each of the last N distinct hours (0 = no keep-hourly schedule)")
		dryRun     = fs.Bool("dry-run", false, "audit: report which versions the next retention sweep would prune, per enforced folder, without mutating anything (folder argument optional; omit to audit every enforced folder)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	rest := fs.Args()
	retention := core.Retention{KeepLast: *keepLast, KeepHourly: *keepHourly}
	if *dryRun {
		if len(rest) > 1 || retention.Enabled() {
			return fmt.Errorf("usage: stdchk policy -dry-run [<folder>]")
		}
		folder := ""
		if len(rest) == 1 {
			folder = rest[0]
		}
		resp, err := cl.PolicyDryRun(folder)
		if err != nil {
			return err
		}
		if len(resp.Folders) == 0 {
			fmt.Println("no enforced folders: the next retention sweep would prune nothing")
			return nil
		}
		for _, f := range resp.Folders {
			fmt.Printf("folder %s: %s", f.Folder, f.Policy.Kind)
			if f.Policy.Kind == core.PolicyPurge {
				fmt.Printf(" after %v", f.Policy.PurgeAfter)
			}
			if f.Policy.Retention.KeepLast > 0 {
				fmt.Printf(" keep-last=%d", f.Policy.Retention.KeepLast)
			}
			if f.Policy.Retention.KeepHourly > 0 {
				fmt.Printf(" keep-hourly=%d", f.Policy.Retention.KeepHourly)
			}
			fmt.Printf(" — next sweep prunes %d version(s)\n", len(f.Victims))
			for _, v := range f.Victims {
				fmt.Printf("  would prune v%-4d %-28s %12d bytes  %s\n",
					v.Version, v.Name, v.FileSize, v.CommittedAt.Format(time.RFC3339))
			}
		}
		return nil
	}
	switch {
	case len(rest) == 1 && !retention.Enabled():
		// Display.
		folder := rest[0]
		p, err := cl.GetPolicy(folder)
		if err != nil {
			return err
		}
		fmt.Printf("folder %s: %s", folder, p.Kind)
		if p.Kind == core.PolicyPurge {
			fmt.Printf(" after %v", p.PurgeAfter)
		}
		if p.Retention.KeepLast > 0 {
			fmt.Printf(" keep-last=%d", p.Retention.KeepLast)
		}
		if p.Retention.KeepHourly > 0 {
			fmt.Printf(" keep-hourly=%d", p.Retention.KeepHourly)
		}
		fmt.Println()
		return nil
	case len(rest) >= 1 && len(rest) <= 3:
		folder := rest[0]
		// Start from the folder's current policy so setting a retention
		// schedule does not silently clear a purge interval or vice versa.
		p, err := cl.GetPolicy(folder)
		if err != nil {
			return err
		}
		if len(rest) >= 2 {
			kind, err := core.ParsePolicyKind(rest[1])
			if err != nil {
				return err
			}
			p.Kind = kind
			p.PurgeAfter = 0
			if kind == core.PolicyPurge {
				if len(rest) != 3 {
					return fmt.Errorf("usage: stdchk policy <folder> purge <interval>")
				}
				d, err := time.ParseDuration(rest[2])
				if err != nil {
					return err
				}
				p.PurgeAfter = d
			}
		}
		if retention.Enabled() || len(rest) == 1 {
			p.Retention = retention
		}
		return cl.SetPolicy(folder, p)
	default:
		return fmt.Errorf("usage: stdchk policy [-keep-last N] [-keep-hourly N] <folder> [none|replace|purge <interval>]")
	}
}

func cmdBenefactors(args []string) error {
	fs := flag.NewFlagSet("stdchk benefactors", flag.ContinueOnError)
	conn := connFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	infos, err := cl.Benefactors()
	if err != nil {
		return err
	}
	for _, b := range infos {
		state := string(b.State)
		if state == "" { // older manager: only the Online bool
			state = "offline"
			if b.Online {
				state = "online"
			}
		}
		fmt.Printf("%-24s %-22s %-8s free=%d reserved=%d chunks=%d\n",
			b.ID, b.Addr, state, b.Free, b.Reserved, b.ChunkHeld)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stdchk stats", flag.ContinueOnError)
	conn := connFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := conn.connect(client.Config{})
	if err != nil {
		return err
	}
	defer cl.Close()
	s, err := cl.ManagerStats()
	if err != nil {
		return err
	}
	fmt.Printf("metadata stripes: %d catalog / %d chunk / %d session\n",
		len(s.CatalogStripes), len(s.ChunkStripes), len(s.SessionStripes))
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		fmt.Printf("%-26s %12d\n", name, s.Counters[name].Value)
	}
	fmt.Printf("%-17s %9s %7s %9s %9s\n", "op", "count", "errors", "p50", "p99")
	for _, op := range slices.Sorted(maps.Keys(s.Ops)) {
		if st := s.Ops[op]; st.Count > 0 {
			fmt.Printf("%-17s %9d %7d %9v %9v\n", op, st.Count, st.Errors,
				metrics.Percentile(st.Latency.Buckets, 0.50).Round(time.Microsecond),
				metrics.Percentile(st.Latency.Buckets, 0.99).Round(time.Microsecond))
		}
	}
	return nil
}
