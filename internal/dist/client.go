package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the typed HTTP client for the campaign service API. Methods
// taking a campaign ID hit the campaign-scoped /v1 routes.
//
// The retry and deadline policy lives here, encoded once for every consumer
// (cmd/symworker, the e2e tests, the symplfied -campaigns subcommand):
//
//   - Small control calls (spec, claim, status, ...) run under Control per
//     attempt and are retried with doubling backoff on transport errors and
//     5xx replies — failures that say nothing about protocol state.
//   - 4xx replies are never retried: the server spoke and meant it.
//   - Complete runs under the Upload deadline (whole task results can be
//     large) and is retried like a control call — the coordinator dedups
//     re-posts, so a retry after a lost reply is answered Duplicate, never
//     double-pooled.
//   - Heartbeat is single-attempt: its failure handling (409 is decisive
//     lease loss, transient failures are counted by the caller) is worker
//     policy, not transport policy. A 409 is reported as an error wrapping
//     ErrLeaseLost.
//   - Create is single-attempt on transport errors too: creating a campaign
//     is not idempotent, and a retry after a lost reply could register the
//     document twice.
type Client struct {
	// Base is the service base URL (e.g. http://host:8080).
	Base string
	// HTTP is the underlying client. Nil uses a client without a global
	// timeout — per-call deadlines below bound every request instead.
	HTTP *http.Client
	// Control bounds each small control request attempt (0: 30s).
	Control time.Duration
	// Upload bounds each completion post attempt (0: 10min).
	Upload time.Duration
	// Retries is the attempt count for retryable calls (0: 4).
	Retries int
	// Backoff is the sleep before the second attempt, doubling after each
	// failure (0: 200ms).
	Backoff time.Duration
}

// NewClient returns a client for base with the default policy.
func NewClient(base string, hc *http.Client) *Client {
	return &Client{Base: base, HTTP: hc}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) control() time.Duration {
	if c.Control > 0 {
		return c.Control
	}
	return controlTimeout
}

func (c *Client) upload() time.Duration {
	if c.Upload > 0 {
		return c.Upload
	}
	return completeTimeout
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 200 * time.Millisecond
}

// path renders a campaign-scoped endpoint.
func (c *Client) path(id, op string) string {
	return c.Base + V1CampaignPath(id, op)
}

// retryable reports whether an attempt error warrants another attempt: a
// transport failure, or a 5xx reply from a proxy or an overloaded server.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500
	}
	return true // transport error: the server may not have heard us at all
}

// do runs one JSON request with the retry policy. method GET sends no body.
func (c *Client) do(ctx context.Context, method, url string, body, out any, timeout time.Duration, attempts int) error {
	var lastErr error
	backoff := c.backoff()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if !sleepCtx(ctx, backoff) {
				break
			}
			backoff *= 2
		}
		err := c.once(ctx, method, url, body, out, timeout)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	if lastErr == nil && ctx.Err() != nil {
		lastErr = ctx.Err()
	}
	return lastErr
}

// once is a single request attempt under its per-call deadline.
func (c *Client) once(ctx context.Context, method, url string, body, out any, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		wPostBytes.Add(int64(len(data)))
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// Campaigns lists every campaign on the service.
func (c *Client) Campaigns(ctx context.Context) (CampaignList, error) {
	var out CampaignList
	err := c.do(ctx, http.MethodGet, c.Base+PathV1Campaigns, nil, &out, c.control(), c.retries())
	return out, err
}

// Create registers a new campaign. Single-attempt: not idempotent.
func (c *Client) Create(ctx context.Context, req CreateCampaignRequest) (CampaignInfo, error) {
	var out CampaignInfo
	err := c.do(ctx, http.MethodPost, c.Base+PathV1Campaigns, req, &out, c.control(), 1)
	return out, err
}

// CancelCampaign cancels campaign id (idempotent).
func (c *Client) CancelCampaign(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, c.Base+V1CampaignPath(id, "cancel"), struct{}{}, nil, c.control(), c.retries())
}

// Spec fetches a campaign document.
func (c *Client) Spec(ctx context.Context, id string) (SpecResponse, error) {
	var out SpecResponse
	err := c.do(ctx, http.MethodGet, c.path(id, "spec"), nil, &out, c.control(), c.retries())
	return out, err
}

// Claim asks campaign id for a task.
func (c *Client) Claim(ctx context.Context, id, worker string) (ClaimResponse, error) {
	var out ClaimResponse
	err := c.do(ctx, http.MethodPost, c.path(id, "claim"), ClaimRequest{Worker: worker}, &out, c.control(), c.retries())
	return out, err
}

// FleetClaim asks the service to pick a campaign and lease a task from it.
func (c *Client) FleetClaim(ctx context.Context, worker string) (FleetClaimResponse, error) {
	var out FleetClaimResponse
	err := c.do(ctx, http.MethodPost, c.Base+PathV1Claim, ClaimRequest{Worker: worker}, &out, c.control(), c.retries())
	return out, err
}

// Heartbeat renews worker's lease on task within campaign id.
// Single-attempt; a 409 reply wraps ErrLeaseLost.
func (c *Client) Heartbeat(ctx context.Context, id, worker string, task int) error {
	err := c.do(ctx, http.MethodPost, c.path(id, "heartbeat"),
		HeartbeatRequest{Worker: worker, Task: task}, nil, c.control(), 1)
	if leaseLost(err) {
		return fmt.Errorf("%w: %v", ErrLeaseLost, err)
	}
	return err
}

// Complete posts a finished task result to campaign id.
func (c *Client) Complete(ctx context.Context, id string, req CompleteRequest) (CompleteResponse, error) {
	var out CompleteResponse
	err := c.do(ctx, http.MethodPost, c.path(id, "complete"), req, &out, c.upload(), c.retries())
	return out, err
}

// Status fetches campaign status.
func (c *Client) Status(ctx context.Context, id string) (StatusResponse, error) {
	var out StatusResponse
	err := c.do(ctx, http.MethodGet, c.path(id, "status"), nil, &out, c.control(), c.retries())
	return out, err
}

// Report fetches the merged campaign report.
func (c *Client) Report(ctx context.Context, id string) (MergedReport, error) {
	var out MergedReport
	err := c.do(ctx, http.MethodGet, c.path(id, "report"), nil, &out, c.control(), c.retries())
	return out, err
}

// Events long-polls campaign id's event stream for events with Seq > after.
// An empty slice means the poll timed out quietly: ask again with the same
// cursor. The per-attempt deadline leaves headroom over the server's hold.
func (c *Client) Events(ctx context.Context, id string, after int) ([]Event, error) {
	var out []Event
	url := c.path(id, "events") + "?after=" + strconv.Itoa(after)
	d := longPollWait + c.control()
	err := c.do(ctx, http.MethodGet, url, nil, &out, d, c.retries())
	return out, err
}

// SummaryGet looks up a function summary in the fleet-wide cache.
func (c *Client) SummaryGet(ctx context.Context, key string) (SummaryGetResponse, error) {
	var out SummaryGetResponse
	err := c.do(ctx, http.MethodPost, c.Base+PathSummaryGet, SummaryGetRequest{Key: key}, &out, c.control(), 1)
	return out, err
}

// SummaryPut publishes a function summary to the fleet-wide cache.
func (c *Client) SummaryPut(ctx context.Context, key string, value json.RawMessage) error {
	return c.do(ctx, http.MethodPost, c.Base+PathSummaryPut, SummaryPutRequest{Key: key, Value: value}, nil, c.control(), 1)
}
