package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// HTTP surface. All non-2xx responses carry a JSON error body
// {"error": "..."}; protocol outcomes map onto status codes:
//
//	POST /api/v1/campaigns                submit a CampaignSpec       -> 201 CampaignInfo
//	GET  /api/v1/campaigns                list campaigns              -> 200 [CampaignInfo]
//	GET  /api/v1/campaigns/{id}           one campaign                -> 200 CampaignInfo | 404
//	GET  /api/v1/campaigns/{id}/export    canonical merged export     -> 200 | 404 | 409 (not complete)
//	GET  /api/v1/campaigns/{id}/triage    bucket stream since ?cursor -> 200 TriagePage (long-poll with ?wait=1)
//	GET  /api/v1/campaigns/{id}/metrics   per-campaign registry       -> 200 Prometheus text | 404
//	GET  /farm?campaign={id}              live shard board            -> 200 | 404 (also ?letter= filter)
//	POST /api/v1/leases                   request work {worker}       -> 200 LeaseGrant | 204 (no work) | 503 (draining)
//	POST /api/v1/leases/{id}/heartbeat    extend lease                -> 200 {expires} | 410 (reclaimed)
//	POST /api/v1/leases/{id}/release      return shard to queue       -> 204 | 410
//	POST /api/v1/leases/{id}/result       upload shard record         -> 204 | 409 (mismatch, undecodable) | 410 | 413 | 429 (+Retry-After)
//
// A result upload's body is the EncodeShardRecord bytes themselves
// (application/json) and its plan fingerprint travels in the
// X-Plan-Fingerprint header, so the coordinator journals exactly what the
// worker encoded without unwrapping an envelope.
//
// The service routes compose with the telemetry server: Routes returns
// telemetry.Route entries for telemetry.Serve, so farmd's one listener
// serves /metrics, /healthz, the farm board, and the campaign API together.

// leaseRequest is the body of POST /api/v1/leases.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// fingerprintHeader carries a result upload's plan fingerprint.
const fingerprintHeader = "X-Plan-Fingerprint"

// maxResultBytes caps a result upload's body. The largest paper-scale
// records are ~35 MB (phone and wear campaign A at seed 1); the cap leaves
// room for several times that while keeping a runaway or hostile upload
// from exhausting the coordinator's memory.
const maxResultBytes = 256 << 20

// heartbeatResponse answers a successful heartbeat.
type heartbeatResponse struct {
	Expires time.Time `json:"expires"`
}

// TriagePage is one read of the incremental bucket stream.
type TriagePage struct {
	Updates []triage.BucketUpdate `json:"updates"`
	// Cursor resumes the next read (pass as ?cursor=).
	Cursor int `json:"cursor"`
	// Closed means the campaign is merged: no further updates will arrive.
	Closed bool `json:"closed"`
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeServiceError maps the coordinator's sentinel errors to status codes.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrLeaseGone):
		writeError(w, http.StatusGone, err)
	case errors.Is(err, ErrBadRecord), errors.Is(err, ErrNotComplete):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrThrottled):
		// Backpressure: tell the uploader when to come back. The hint is
		// deliberately short — the fsync pipeline drains in well under a
		// second; the client's jittered backoff spreads the herd.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// Handler returns the coordinator's full HTTP API as one handler.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	for _, r := range Routes(c) {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// Routes returns the API as telemetry server routes, so farmd mounts the
// campaign API, the live farm board, and /metrics on a single listener.
func Routes(c *Coordinator) []telemetry.Route {
	return []telemetry.Route{
		{Pattern: "POST /api/v1/campaigns", Handler: http.HandlerFunc(c.handleSubmit)},
		{Pattern: "GET /api/v1/campaigns", Handler: http.HandlerFunc(c.handleList)},
		{Pattern: "GET /api/v1/campaigns/{id}", Handler: http.HandlerFunc(c.handleCampaign)},
		{Pattern: "GET /api/v1/campaigns/{id}/export", Handler: http.HandlerFunc(c.handleExport)},
		{Pattern: "GET /api/v1/campaigns/{id}/triage", Handler: http.HandlerFunc(c.handleTriage)},
		{Pattern: "GET /api/v1/campaigns/{id}/metrics", Handler: http.HandlerFunc(c.handleCampaignMetrics)},
		{Pattern: "GET /farm", Handler: http.HandlerFunc(c.handleFarm)},
		{Pattern: "POST /api/v1/leases", Handler: http.HandlerFunc(c.handleLease)},
		{Pattern: "POST /api/v1/leases/{id}/heartbeat", Handler: http.HandlerFunc(c.handleHeartbeat)},
		{Pattern: "POST /api/v1/leases/{id}/release", Handler: http.HandlerFunc(c.handleRelease)},
		{Pattern: "POST /api/v1/leases/{id}/result", Handler: http.HandlerFunc(c.handleResult)},
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: parse spec: %w", err))
		return
	}
	info, err := c.Submit(spec)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Campaigns())
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	info, err := c.Campaign(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleExport(w http.ResponseWriter, r *http.Request) {
	data, err := c.Export(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (c *Coordinator) handleTriage(w http.ResponseWriter, r *http.Request) {
	stream, err := c.TriageStream(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	cursor, _ := strconv.Atoi(r.URL.Query().Get("cursor"))
	var page TriagePage
	if r.URL.Query().Get("wait") != "" {
		page.Updates, page.Cursor, page.Closed = stream.Wait(r.Context(), cursor)
	} else {
		page.Updates, page.Cursor, page.Closed = stream.Since(cursor)
	}
	writeJSON(w, http.StatusOK, page)
}

func (c *Coordinator) handleCampaignMetrics(w http.ResponseWriter, r *http.Request) {
	reg, err := c.CampaignTelemetry(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// handleFarm serves the live shard board. ?campaign= selects a campaign by
// ID (default: the most recently submitted); unknown IDs answer 404 with a
// JSON error body. The per-campaign board itself understands ?letter= for
// filtering down to one campaign letter's shards.
func (c *Coordinator) handleFarm(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("campaign")
	c.mu.Lock()
	if id == "" && len(c.order) > 0 {
		id = c.order[len(c.order)-1]
	}
	camp := c.campaigns[id]
	c.mu.Unlock()
	if camp == nil {
		if id == "" {
			writeError(w, http.StatusNotFound, errors.New("service: no campaigns hosted yet"))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrNotFound, id))
		return
	}
	// farm.StatusHandler's own filter parameter is ?campaign= (a campaign
	// letter); the service claims that name for campaign IDs, so translate
	// ?letter= into the board's query.
	if letter := r.URL.Query().Get("letter"); letter != "" {
		q := r.URL.Query()
		q.Set("campaign", letter)
		r = r.Clone(r.Context())
		r.URL.RawQuery = q.Encode()
	} else if id != "" {
		q := r.URL.Query()
		q.Del("campaign")
		r = r.Clone(r.Context())
		r.URL.RawQuery = q.Encode()
	}
	farm.StatusHandler(camp.board).ServeHTTP(w, r)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: parse lease request: %w", err))
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	grant, err := c.Lease(req.Worker)
	switch {
	case errors.Is(err, ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
	case err != nil:
		writeServiceError(w, err)
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	expires, err := c.Heartbeat(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Expires: expires})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := c.Release(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	record, err := readResult(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%w: over %d bytes", ErrRecordTooLarge, maxResultBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: read result upload: %w", err))
		return
	}
	if err := c.Complete(r.PathValue("id"), r.Header.Get(fingerprintHeader), record); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readResult reads an upload body of at most maxResultBytes. A declared
// length is refused before reading and otherwise read into one exactly
// sized buffer; a chunked body is read through the same cap.
func readResult(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxResultBytes {
		return nil, &http.MaxBytesError{Limit: maxResultBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxResultBytes)
	if r.ContentLength < 0 {
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
