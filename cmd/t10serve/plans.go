package main

import (
	"errors"
	"io"
	"net/http"
	"strings"

	"repro/internal/plancache"
)

// handlePlans is the fleet peer surface: GET serves the sealed plan
// record verbatim from the disk layer, PUT verifies and stores one a
// peer pushed. Both bypass admission entirely — like the weight-0
// cache-probe fast path, they never compile, never search and never
// consume a slot of the worker budget, so a fleet of replicas probing
// each other cannot starve the compiles the budget exists for. GET
// does no verification (the requesting replica verifies provenance
// itself — the wire is not trusted); PUT applies the full provenance
// check before anything touches disk, so a byzantine peer cannot
// poison the store.
func (s *server) handlePlans(w http.ResponseWriter, r *http.Request) {
	k, ok := plancache.ParseKey(strings.TrimPrefix(r.URL.Path, "/plans/"))
	if !ok {
		s.httpError(w, http.StatusBadRequest, "want /plans/{64-hex-digit fingerprint}")
		return
	}
	pc := s.compiler().PlanCache()
	switch r.Method {
	case http.MethodGet:
		s.plans.PlanGets.Add(1)
		raw, ok := pc.RawBlob(k)
		if !ok {
			s.plans.PlanGetMisses.Add(1)
			s.httpError(w, http.StatusNotFound, "no record for %s", k)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case http.MethodPut:
		s.plans.PlanPuts.Add(1)
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, plancache.MaxRecordBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.plans.PlanPutRejects.Add(1)
				s.httpError(w, http.StatusRequestEntityTooLarge, "record exceeds %d bytes", int64(plancache.MaxRecordBytes))
				return
			}
			s.httpError(w, http.StatusBadRequest, "read record: %v", err)
			return
		}
		switch err := pc.ImportBlob(k, raw); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, plancache.ErrImportRejected):
			s.plans.PlanPutRejects.Add(1)
			s.httpError(w, http.StatusUnprocessableEntity, "%v", err)
		case errors.Is(err, plancache.ErrImportDisabled):
			s.httpError(w, http.StatusConflict, "%v", err)
		default:
			s.httpError(w, http.StatusInternalServerError, "store record: %v", err)
		}
	default:
		s.methodNotAllowed(w, "GET, PUT")
	}
}
