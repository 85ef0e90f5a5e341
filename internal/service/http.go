package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"frfc/internal/status"
)

// Handler returns the service's REST API:
//
//	POST   /campaigns               submit a SweepRequest, returns the campaign summary (201)
//	GET    /campaigns               list campaign summaries, submission order
//	GET    /campaigns/{id}          one campaign's summary plus per-job rows
//	GET    /campaigns/{id}/results  completed results as JSONL store lines, job order
//	                                (?wait=1 blocks until the campaign finishes)
//	DELETE /campaigns/{id}          cancel cooperatively, keeping completed results
//
// Mount it on a status server with Mount to share one listener with /status
// and /metrics.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.register(func(pattern string, h http.HandlerFunc) { mux.Handle(pattern, h) })
	return mux
}

// Mount registers the REST routes on a status server's mux, so the campaign
// API, /status and /metrics share one listener.
func (s *Service) Mount(st *status.Server) {
	s.register(func(pattern string, h http.HandlerFunc) { st.Handle(pattern, h) })
}

func (s *Service) register(handle func(pattern string, h http.HandlerFunc)) {
	handle("POST /campaigns", s.handleSubmit)
	handle("GET /campaigns", s.handleList)
	handle("GET /campaigns/{id}", s.handleGet)
	handle("GET /campaigns/{id}/results", s.handleResults)
	handle("DELETE /campaigns/{id}", s.handleCancel)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
}

// apiError is the JSON error envelope every non-2xx response carries.
func apiError(w http.ResponseWriter, code int, format string, a ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck // client gone is not our problem
		"error": fmt.Sprintf(format, a...),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not our problem
}

// clientKey identifies the submitting client for rate limiting: the peer
// address without the ephemeral port, so one host shares one bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := r.Body
	if max := s.opts.Limits.MaxBodyBytes; max > 0 {
		body = http.MaxBytesReader(w, r.Body, max)
	}
	var req SweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.noteRejected(rejectBody)
			apiError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.noteRejected(rejectValidation)
		apiError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	c, err := s.SubmitFrom(req, clientKey(r))
	if err != nil {
		switch {
		case errors.Is(err, ErrCapacity):
			// The envelope is full or the client is over rate: explicitly
			// retryable, with a hint. One second is the token-bucket
			// horizon for rate rejections and a sane floor for the rest.
			w.Header().Set("Retry-After", "1")
			apiError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrClosed):
			apiError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			apiError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, c.view(c.created))
}

// handleHealthz is liveness: the process is up and serving HTTP. Always 200.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting submissions, 503 once the
// daemon starts draining — the signal that tells a load balancer to route
// elsewhere while in-flight campaigns finish.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// campaignDetail is the GET /campaigns/{id} response body.
type campaignDetail struct {
	CampaignView
	JobRows []JobView `json:"jobRows"`
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, campaignDetail{
		CampaignView: c.view(time.Now()),
		JobRows:      c.jobViews(),
	})
}

// handleResults streams the campaign's finished results in job order, each
// line the bytes DB.Put stored for that job's hash — which is what makes the
// stream byte-identical to the store a one-shot single-worker campaign
// writes (the CI smoke test diffs the two). With ?wait=1 the response is
// delayed until the campaign reaches a terminal state (or the client goes
// away); without it the stream lists whatever has finished so far.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		select {
		case <-c.Finished():
		case <-r.Context().Done():
			return
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	omitted := 0
	for _, hash := range c.storedHashes() {
		line, ok := s.db.GetLine(hash)
		if !ok {
			// The job finished but the database does not hold its line.
			// The stream omits it, not silently: counted into the campaign
			// view, logged once per campaign.
			omitted++
			continue
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return
		}
	}
	if omitted > 0 && c.noteOmitted(omitted) {
		log.Printf("service: campaign %s: %d finished result(s) missing from the database; results stream is incomplete",
			c.ID(), omitted)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, c.view(time.Now()))
}
