package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is a typed wrapper over the serve API, used by cmd/ivliw-load's
// one-shot submission, perfbench's served-replay workload and the tests;
// any HTTP client can speak the same JSON surface directly.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8372".
	Base string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// APIError is a non-2xx answer, carrying the server's error message and
// the Retry-After hint when one was sent (503s).
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: server answered %d: %s", e.Status, e.Message)
}

// Retryable reports whether the error is a backpressure rejection worth
// retrying after its hint (queue full or draining).
func (e *APIError) Retryable() bool { return e.Status == http.StatusServiceUnavailable }

// decodeStrict decodes one wire JSON value rejecting unknown fields: the
// client and server version together in this module, so a field the client
// does not know means a mismatched peer, not forward compatibility.
func decodeStrict(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON answer into out (when non-nil),
// converting non-2xx answers into *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		var e errorResponse
		if decodeStrict(body, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = string(bytes.TrimSpace(body))
		}
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			apiErr.RetryAfter = time.Duration(sec) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := decodeStrict(body, out); err != nil {
		return fmt.Errorf("serve: decoding response: %w", err)
	}
	return nil
}

// Submit posts a spec (raw JSON bytes, exactly what a spec file holds) and
// returns the server's dedup-aware answer.
func (c *Client) Submit(ctx context.Context, specJSON []byte) (SubmitResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/jobs", bytes.NewReader(specJSON))
	if err != nil {
		return SubmitResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out SubmitResponse
	err = c.do(req, &out)
	return out, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, job string) (StatusResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/jobs/"+job, nil)
	if err != nil {
		return StatusResponse{}, err
	}
	var out StatusResponse
	err = c.do(req, &out)
	return out, err
}

// Rows streams a done job's result rows into w and returns the byte count.
// The bytes are the server's committed result file verbatim.
func (c *Client) Rows(ctx context.Context, job string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/jobs/"+job+"/rows", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		apiErr := &APIError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
		var e errorResponse
		if decodeStrict(body, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		}
		return 0, apiErr
	}
	return io.Copy(w, resp.Body)
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/stats", nil)
	if err != nil {
		return ServerStats{}, err
	}
	var out ServerStats
	err = c.do(req, &out)
	return out, err
}

// Wait polls a job until it reaches a terminal state (done or failed) and
// returns the final status. A failed job is not an error from Wait's point
// of view — inspect State; errors are transport or context failures.
func (c *Client) Wait(ctx context.Context, job string, poll time.Duration) (StatusResponse, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, job)
		if err != nil {
			return StatusResponse{}, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return StatusResponse{}, ctx.Err()
		case <-t.C:
		}
	}
}
