// Command pncoord coordinates a distributed study: it serves the study
// matrix to any number of `pnstudy -worker` processes, leases ledger
// chunks to them over HTTP, folds their checkpoints in canonical ledger
// order as they land, re-leases the chunks of workers that die, and
// prints the final aggregate — bit-identical to what one machine
// running the whole study would have produced.
//
// Usage:
//
//	pncoord -addr :8080 -scenario stress-clouds -storage ideal:0.047,supercap:0.047 -util 1,0.6 -reps 256
//	pnstudy -worker http://host:8080        # on each machine, as many as you like
//
// The matrix flags are the same study-identity flags pnstudy takes;
// workers fetch them as a recipe from the coordinator, rebuild the
// study locally and refuse to run unless their fingerprint matches —
// version or flag skew between machines is caught before any chunk
// executes, not after results are polluted.
//
// Progress streams to stderr as chunks land, including live per-axis
// marginals. A chunk whose lease expires (dead or straggling worker)
// is re-leased with backoff; a chunk failing -max-attempts leases
// fails the whole study rather than silently dropping tasks.
//
// With -journal, every folded chunk is appended to a durable
// write-ahead journal before the worker's submission is acknowledged.
// If the coordinator dies — power cut, OOM kill, kill -9 — restart it
// with the same flags and the same -journal path: it replays the
// durable chunks through full checkpoint validation, refuses the file
// if it belongs to a different study, and resumes by leasing only the
// chunks still missing. On SIGINT/SIGTERM it instead drains
// gracefully: stops granting leases, finishes in-flight submissions,
// flushes the journal and prints how to resume.
//
// With -token, every endpoint requires "Authorization: Bearer <token>"
// with one of the configured tokens (give workers theirs via
// `pnstudy -worker URL -token ...`) — the shared auth layer pnserve
// uses, for coordinators reachable from untrusted networks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pnps/internal/coord"
	"pnps/internal/studycli"
)

// options is the parsed CLI surface — separated from main so tests can
// drive flag parsing and config assembly without spawning processes.
type options struct {
	addr    string
	recipe  studycli.Config
	cfg     coord.Config // Study and Recipe populated from recipe
	tokens  []string
	journal string
	exports *studycli.Flags
}

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("pncoord", flag.ContinueOnError)
	matrix := studycli.RegisterFlags(fs)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		chunk    = fs.Int("chunk", 64, "lease granularity, ledger tasks per chunk")
		leaseTTL = fs.Duration("lease-ttl", 2*time.Minute, "lease time-to-live before a chunk is re-leased")
		attempts = fs.Int("max-attempts", 5, "lease attempts per chunk before the study fails")
		backoff  = fs.Duration("backoff", time.Second, "re-lease backoff per prior attempt")
		journal  = fs.String("journal", "", "write-ahead journal path: folded chunks survive a coordinator crash and replay on restart")
		fsyncStr = fs.String("fsync", "always", "journal durability: always (fsync each record) or off (leave flushing to the OS)")
		tokens   = fs.String("token", "", "comma-separated bearer tokens; empty disables authentication")
		verbose  = fs.Bool("v", false, "log lease lifecycle events")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	fsync, err := coord.ParseSyncPolicy(*fsyncStr)
	if err != nil {
		return nil, err
	}

	recipe := matrix.Config
	st, err := recipe.Build()
	if err != nil {
		return nil, err
	}
	rawRecipe, err := json.Marshal(recipe)
	if err != nil {
		return nil, err
	}

	opt := &options{
		addr: *addr, recipe: recipe,
		cfg: coord.Config{
			Study: st, Recipe: rawRecipe,
			ChunkSize: *chunk, LeaseTTL: *leaseTTL,
			MaxAttempts: *attempts, Backoff: *backoff,
			JournalPath: *journal, JournalSync: fsync,
			OnChunk: printChunkStatus,
		},
		tokens:  coord.SplitTokens(*tokens),
		journal: *journal,
		exports: matrix,
	}
	if *verbose {
		opt.cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return opt, nil
}

func main() {
	opt, err := parseOptions(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	srv, err := coord.NewServer(opt.cfg)
	if err != nil {
		fatal(err)
	}
	if replayed := srv.Status().DoneChunks; opt.journal != "" && replayed > 0 {
		fmt.Fprintf(os.Stderr, "pncoord: journal %s: resuming with %d chunks already durable\n", opt.journal, replayed)
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatal(err)
	}
	info := srv.Info()
	fmt.Fprintf(os.Stderr, "pncoord: study %s — %d tasks in %d chunks of %d, serving on %s\n",
		info.Name, info.TotalTasks, info.NumChunks, info.ChunkSize, ln.Addr())
	fmt.Fprintf(os.Stderr, "pncoord: join with: pnstudy -worker http://<this-host>%s\n", opt.addr)

	// The server is hardened against slow or hostile clients: a peer
	// that dribbles its headers, never reads its response or opens a
	// connection and goes silent gets cut, not a goroutine forever.
	httpSrv := &http.Server{
		Handler:           coord.RequireBearer(opt.tokens, srv.Handler()),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	// SIGINT/SIGTERM means drain, not die: stop granting leases (workers
	// park and retry), let in-flight submissions land and journal, then
	// close the listener gracefully.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	interrupted := false
	select {
	case <-srv.Done():
	case <-sigCtx.Done():
		interrupted = true
		stop() // a second signal kills immediately
		fmt.Fprintln(os.Stderr, "pncoord: interrupt — draining (no new leases; in-flight submissions still land)")
		srv.Drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("closing journal: %w", err))
	}

	if interrupted {
		st := srv.Status()
		fmt.Fprintf(os.Stderr, "pncoord: stopped with %d/%d chunks folded\n", st.DoneChunks, st.TotalChunks)
		if opt.journal != "" {
			fmt.Fprintf(os.Stderr, "pncoord: folded chunks are durable — resume with the same flags and -journal %s\n", opt.journal)
		} else {
			fmt.Fprintln(os.Stderr, "pncoord: no -journal was set; a restart re-runs the study from scratch")
		}
		os.Exit(1)
	}

	out, err := srv.Outcome()
	if err != nil {
		fatal(err)
	}
	studycli.PrintOutcome(os.Stdout, opt.cfg.Study, out)
	if err := opt.exports.WriteExports(out); err != nil {
		fatal(err)
	}
}

// printChunkStatus streams fold progress with the live survival
// marginals — the headline number of the study, watchable while the
// fleet works.
func printChunkStatus(s coord.Status) {
	fmt.Fprintf(os.Stderr, "pncoord: %d/%d chunks folded (%d/%d tasks, %d leased)",
		s.DoneChunks, s.TotalChunks, s.FoldedTasks, s.TotalTasks, s.LeasedChunks)
	for _, m := range s.Marginals {
		fmt.Fprintf(os.Stderr, "  %s=%s %.0f%%", m.Axis, m.Level, m.Summary.SurvivalRate*100)
	}
	fmt.Fprintln(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pncoord:", err)
	os.Exit(1)
}
