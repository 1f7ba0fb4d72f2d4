// Command ckserve is the long-lived job-serving daemon: it boots the
// mesh once (-backend=real or net), keeps peers dialed and pools warm,
// and serves a stream of jobs over a local HTTP/JSON API instead of
// paying the boot cost per run.
//
//	ckserve -backend=net -net.world=3 -addr 127.0.0.1:8097
//	ckserve submit -addr 127.0.0.1:8097 -spec '{"kind":"stencil","validate":true}'
//	ckserve bench  -addr 127.0.0.1:8097 -n 100 -c 8
//
// Under the net backend every rank runs the same binary (self-spawn
// does this automatically): rank 0 owns the HTTP API and the job
// queue, worker ranks follow the job announcements. A worker rank
// kill -9'd mid-job is respawned and the job retried — the daemon
// survives.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/charm"
	"repro/internal/launch"
	"repro/internal/serve"
)

// ckserve serves the live backends (sim runs are one-shot cmds). Kills
// ride on individual jobs, so the daemon registers no -chaos.kill and
// keeps its mesh rejoinable for its whole lifetime.
var binary = launch.Binary{
	Name:     "ckserve",
	Backends: []charm.Backend{charm.RealBackend, charm.NetBackend},
	Serving:  true,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "bench":
			benchMain(os.Args[2:])
			return
		case "submit":
			submitMain(os.Args[2:])
			return
		}
	}
	daemonMain()
}

func daemonMain() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8097", "HTTP listen address (rank 0 only)")
		queueDepth = flag.Int("queue", 16, "admission queue depth; submissions beyond it get 429")
		attempts   = flag.Int("attempts", charm.DefaultRecoveryAttempts, "per-job recovery attempts after a rank death (net)")
		parallel   = flag.Int("parallel", 1, "concurrent jobs (real backend only; net runs one at a time)")
		reportWait = flag.Duration("report.wait", 60*time.Second, "how long rank 0 waits for worker job reports")
	)
	lf := binary.Register(flag.CommandLine)
	flag.Parse()

	r := lf.Launch(false, nil)
	env := serve.Env{Backend: r.Backend, Platform: r.Platform, Net: r.Node}
	if r.Quiet {
		// Worker rank: no HTTP, just follow the job announcements until
		// rank 0 says shutdown.
		if err := serve.Follow(env, *attempts); err != nil {
			r.Finish([]error{err})
		}
		r.Finish(nil)
		return
	}

	srv, err := serve.New(serve.Options{
		Env:        env,
		QueueDepth: *queueDepth,
		Attempts:   *attempts,
		ReportWait: *reportWait,
		Parallel:   *parallel,
	})
	if err != nil {
		r.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		r.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	fmt.Printf("ckserve listening on http://%s (backend %s, world %d, kinds %v)\n",
		ln.Addr(), r.Backend, env.World(), serve.Kinds())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("ckserve: shutting down")
	httpSrv.Close()
	srv.Close()
	serve.AnnounceShutdown(env)
	r.Finish(nil)
}
