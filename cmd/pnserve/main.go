// Command pnserve runs the simulation service: a long-lived HTTP/JSON
// API that accepts study recipes (the same studycli.Config wire format
// pncoord publishes to workers), executes them with bounded admission,
// and answers repeated or overlapping submissions from a content-
// addressed result cache — bit-identical bytes, zero simulation work.
//
// Usage:
//
//	pnserve -addr :8090 -token alice-key,bob-key -job-workers 2
//
//	curl -H 'Authorization: Bearer alice-key' -d '{"scenario":"stress-clouds","storage":"ideal:0.047,supercap:0.047","util":"1,0.6","reps":8,"seed":7,"bins":64,"hist_hi":10}' http://host:8090/v1/jobs
//	curl -H '...' http://host:8090/v1/jobs/job-1                    # status + live marginals
//	curl -H '...' http://host:8090/v1/jobs/job-1/events             # NDJSON progress stream
//	curl -H '...' http://host:8090/v1/jobs/job-1/outcome?format=csv # json | cells-csv | runs-csv
//
// When the job queue is full the service answers 429 with Retry-After
// instead of queueing without bound; on SIGINT/SIGTERM it drains like
// pncoord — new submissions get 503, accepted jobs finish and their
// results land in the cache before exit. With -token configured, each
// token is a tenant with an independent-but-reproducible seed
// namespace: two tenants submitting the same recipe get statistically
// independent studies, while each tenant's own resubmission is an
// exact cache hit.
package main

import (
	"context"
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
	"pnps/internal/serve"
)

// options is the parsed CLI surface — separated from main so tests can
// drive flag parsing without spawning processes.
type options struct {
	addr string
	cfg  serve.Config
}

func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("pnserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8090", "HTTP listen address")
		tokens     = fs.String("token", "", "comma-separated bearer tokens; empty disables authentication, each token is a tenant seed namespace")
		jobWorkers = fs.Int("job-workers", 2, "concurrently executing jobs")
		queue      = fs.Int("queue", 16, "admitted-but-not-running job bound; a full queue answers 429")
		simWorkers = fs.Int("sim-workers", 0, "per-job run concurrency (0 = GOMAXPROCS)")
		cacheMB    = fs.Int("cache-mb", 64, "content-addressed result cache budget, MiB")
		maxJobs    = fs.Int("max-jobs", 256, "retained job records (oldest finished pruned first)")
		retryAfter = fs.Duration("retry-after", time.Second, "backoff hint on 429 responses")
		verbose    = fs.Bool("v", false, "log job lifecycle events")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *cacheMB <= 0 {
		return nil, fmt.Errorf("-cache-mb %d: the result cache needs a positive budget", *cacheMB)
	}
	opt := &options{
		addr: *addr,
		cfg: serve.Config{
			Tokens:     coord.SplitTokens(*tokens),
			JobWorkers: *jobWorkers, QueueDepth: *queue, SimWorkers: *simWorkers,
			CacheBytes: int64(*cacheMB) << 20,
			MaxJobs:    *maxJobs, RetryAfter: *retryAfter,
		},
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
	s := serve.NewServer(opt.cfg)

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatal(err)
	}
	auth := "open (no -token)"
	if n := len(opt.cfg.Tokens); n > 0 {
		auth = fmt.Sprintf("%d bearer tokens", n)
	}
	fmt.Fprintf(os.Stderr, "pnserve: serving on %s — %s, %d job workers, queue %d, cache %d MiB\n",
		ln.Addr(), auth, opt.cfg.JobWorkers, opt.cfg.QueueDepth, opt.cfg.CacheBytes>>20)

	// Hardened against slow or hostile clients, like pncoord — with a
	// generous write timeout because /events streams until the job ends.
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      15 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	// SIGINT/SIGTERM means drain, not die: refuse new submissions (503),
	// finish every accepted job so its results land in the cache, then
	// close the listener.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "pnserve: interrupt — draining (accepted jobs finish; new submissions get 503)")

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fatal(err)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutdownCtx)
	fmt.Fprintln(os.Stderr, "pnserve: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnserve:", err)
	os.Exit(1)
}
