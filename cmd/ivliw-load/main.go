// Command ivliw-load submits one spec file to an ivliw-served daemon, waits
// for the job to finish and optionally saves its rows — the smallest
// client, with which a user can check the served rows against the direct
// CLI run of the same spec file (TestOneShot checks them byte-identical):
//
//	ivliw-load -addr URL -submit spec.json [-rows out.jsonl]
//
// It prints `job=<hash> state=<state> dedup=<bool> cached=<bool> rows=<n>
// executions=<server total>` and exits nonzero if the job failed. -submit
// is required (exit 2 without it).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ivliw/internal/atomicio"
	"ivliw/sweep/serve"
)

// poll is the status poll interval while the job runs.
const poll = 5 * time.Millisecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("ivliw-load: ")

	addr := flag.String("addr", "http://127.0.0.1:8372", "server base URL")
	submit := flag.String("submit", "", "submit this spec file (required)")
	rows := flag.String("rows", "", "save the job's result rows here (atomic)")
	flag.Parse()
	if *submit == "" {
		fmt.Fprintln(flag.CommandLine.Output(), "ivliw-load: -submit is required")
		flag.Usage()
		os.Exit(2)
	}

	c := &serve.Client{Base: *addr}
	if err := oneShot(context.Background(), c, *submit, *rows, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// oneShot submits one spec file, waits for the terminal state, optionally
// saves the rows, and reports the interaction on w.
func oneShot(ctx context.Context, c *serve.Client, specPath, rowsPath string, w io.Writer) error {
	specJSON, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	sub, err := c.Submit(ctx, specJSON)
	if err != nil {
		return err
	}
	st, err := c.Wait(ctx, sub.Job, poll)
	if err != nil {
		return err
	}
	if rowsPath != "" && st.State == serve.StateDone {
		f, err := atomicio.Create(rowsPath)
		if err != nil {
			return err
		}
		if _, err := c.Rows(ctx, sub.Job, f); err != nil {
			f.Abort()
			return err
		}
		if err := f.Commit(); err != nil {
			return err
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "job=%s state=%s dedup=%t cached=%t rows=%d executions=%d\n",
		sub.Job, st.State, sub.Dedup, sub.Cached, st.Rows, stats.Executions)
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", sub.Job, st.State, st.Error)
	}
	return nil
}
