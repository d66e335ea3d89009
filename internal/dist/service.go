package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"symplfied/internal/obs"
)

// longPollWait bounds how long GET /v1/campaigns/{id}/events?after=N holds
// the request open waiting for a new event before answering with an empty
// batch. Short enough to beat intermediary idle timeouts, long enough that
// a quiet campaign costs a few requests a minute.
const longPollWait = 25 * time.Second

// Service is the versioned multi-campaign HTTP API over a Registry: the
// /v1/campaigns lifecycle and campaign-scoped task routes, the fleet-level
// /v1/claim dispatcher and the fleet-wide summary cache. See the endpoint
// table in protocol.go.
type Service struct {
	reg *Registry
}

// NewService wraps a registry in its HTTP API.
func NewService(reg *Registry) *Service { return &Service{reg: reg} }

// Registry exposes the underlying registry (CLI status loops, tests).
func (s *Service) Registry() *Registry { return s.reg }

// campaign resolves {id} from a v1 route, answering 404 on a miss.
func (s *Service) campaign(w http.ResponseWriter, r *http.Request) (*Coordinator, bool) {
	id := r.PathValue("id")
	c, ok := s.reg.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no such campaign %q", id), http.StatusNotFound)
		return nil, false
	}
	return c, true
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateCampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	c, err := s.reg.Create(req.Doc, req.Tenant, req.Priority)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQuota) {
			status = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, c.Info())
}

func (s *Service) handleClaim(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp := c.Claim(req.Worker)
	if resp.Done {
		// The claim may have settled the campaign's tail from the result
		// cache; make the lifecycle transition durable.
		_ = s.reg.SyncState(c.ID())
	}
	writeJSON(w, resp)
}

func (s *Service) handleHeartbeat(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.Heartbeat(req.Worker, req.Task); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleComplete(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.Complete(req.Worker, req.Task, req.Result)
	if err != nil && !resp.Accepted {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if resp.Done {
		_ = s.reg.SyncState(c.ID())
	}
	writeJSON(w, resp)
}

// handleEvents streams a campaign's result events. Two modes:
//
//	?after=N       long-poll: respond with events Seq > N, holding the
//	               request up to longPollWait when none exist yet (an empty
//	               array means "ask again with the same cursor").
//	?sse=1         server-sent events: one "data:" frame per event from
//	               ?after=N (default 0) onward; the stream ends after a
//	               terminal "done" or "cancelled" event, or with the client.
func (s *Service) handleEvents(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad after cursor: "+err.Error(), http.StatusBadRequest)
			return
		}
		after = n
	}
	if r.URL.Query().Get("sse") != "" {
		s.streamSSE(c, w, r, after)
		return
	}
	events, ch := c.EventsSince(after)
	if len(events) > 0 {
		writeJSON(w, events)
		return
	}
	timer := time.NewTimer(longPollWait)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	case <-r.Context().Done():
		return
	}
	events, _ = c.EventsSince(after)
	writeJSON(w, events)
}

func terminalEvent(ev Event) bool { return ev.Type == "done" || ev.Type == "cancelled" }

func (s *Service) streamSSE(c *Coordinator, w http.ResponseWriter, r *http.Request, after int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		events, ch := c.EventsSince(after)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			after = ev.Seq
			fl.Flush()
			if terminalEvent(ev) {
				return
			}
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// Handler builds the service mux: the v1 API, the fleet-wide endpoints and
// the obs operational endpoints (/metrics, /debug/vars, /debug/pprof/).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	// Campaign lifecycle.
	mux.HandleFunc("POST "+PathV1Campaigns, s.handleCreate)
	mux.HandleFunc("GET "+PathV1Campaigns, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.reg.List())
	})
	mux.HandleFunc("POST "+PathV1Campaigns+"/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := s.reg.Cancel(r.PathValue("id")); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrNoCampaign) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	// Campaign-scoped task protocol.
	scoped := func(method, op string, h func(*Coordinator, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(method+" "+PathV1Campaigns+"/{id}/"+op, func(w http.ResponseWriter, r *http.Request) {
			c, ok := s.campaign(w, r)
			if !ok {
				return
			}
			h(c, w, r)
		})
	}
	scoped("GET", "spec", func(c *Coordinator, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.SpecResponse())
	})
	scoped("POST", "claim", s.handleClaim)
	scoped("POST", "heartbeat", s.handleHeartbeat)
	scoped("POST", "complete", s.handleComplete)
	scoped("GET", "status", func(c *Coordinator, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	scoped("GET", "report", func(c *Coordinator, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Report())
	})
	scoped("GET", "events", s.handleEvents)

	// Fleet-level claim: the service picks the campaign.
	mux.HandleFunc("POST "+PathV1Claim, func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, s.reg.FleetClaim(req.Worker))
	})

	// Fleet-wide summary cache: content-addressed keys need no campaign.
	mux.HandleFunc(PathSummaryGet, func(w http.ResponseWriter, r *http.Request) {
		var req SummaryGetRequest
		if !readJSON(w, r, &req) {
			return
		}
		raw, ok := s.reg.SummaryCache().GetRaw(req.Key)
		if !ok {
			writeJSON(w, SummaryGetResponse{})
			return
		}
		writeJSON(w, SummaryGetResponse{Found: true, Value: raw})
	})
	mux.HandleFunc(PathSummaryPut, func(w http.ResponseWriter, r *http.Request) {
		var req SummaryPutRequest
		if !readJSON(w, r, &req) {
			return
		}
		if !s.reg.SummaryCache().PutRaw(req.Key, req.Value) {
			http.Error(w, "value does not decode as a function summary", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	obs.RegisterOps(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}
