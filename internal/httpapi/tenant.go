package httpapi

import (
	"context"
	"net/http"
	"strings"
	"sync"

	"repro/internal/tenant"
)

// This file is the multi-tenant front door (DESIGN.md §9): API-key
// authentication, per-tenant token-bucket rate limiting, tenant-scoped graph
// and batch visibility, and the bounded long-poll waiter gate. Tenancy is
// opt-in: without WithKeyring every request runs as tenant.Anonymous and the
// wire surface is byte-identical to the single-tenant server, so existing
// clients and the sweep CSVs see no difference.
//
// Scoping model: a tenant's graphs are stored under "<tenant>/<name>" — the
// tenant charset excludes "/", so scoped names cannot collide across tenants
// — and every response strips the prefix back off, making each tenant see a
// private namespace. Jobs, job groups and batches are tagged with the
// submitting tenant and GET/DELETE return 404 (not 403) across tenants, so
// the API does not leak which IDs exist.

// APIKeyHeader is the simple API-key request header. Authorization: Bearer
// works too; the header wins when both are set.
const APIKeyHeader = "X-API-Key"

// Machine-readable error codes beside CodeQueueFull. Clients switch on the
// code, not the message text.
const (
	// CodeUnauthorized marks a 401: the server runs with -keys and the
	// request carried no valid API key.
	CodeUnauthorized = "unauthorized"
	// CodeRateLimited marks a 429 from the tenant's token bucket; the
	// Retry-After header says when to try again.
	CodeRateLimited = "rate_limited"
	// CodeBodyTooLarge marks a 413: the request body exceeded the server's
	// byte bound. Deterministic for a given payload — clients must not
	// retry or fail over, and the cluster coordinator fails the cell, not
	// the worker.
	CodeBodyTooLarge = "body_too_large"
	// CodeDraining marks a 503 from a server in graceful drain: admission
	// is closed but in-flight work is finishing. Retry against another
	// replica.
	CodeDraining = "draining"
)

// defaultMaxWaiters bounds concurrent ?wait= long-polls and result streams
// per tenant (and for the anonymous tenant in open mode) when the key file
// sets no waiters= override. Each waiter parks a goroutine and a connection;
// the bound turns a waiter flood into fast snapshot responses instead of
// resource exhaustion.
const defaultMaxWaiters = 256

type tenantCtxKey struct{}

// tenantFrom returns the tenant the middleware authenticated, or Anonymous.
func tenantFrom(r *http.Request) tenant.Tenant {
	if t, ok := r.Context().Value(tenantCtxKey{}).(tenant.Tenant); ok {
		return t
	}
	return tenant.Anonymous
}

// apiKeyFrom extracts the request's API key: X-API-Key first, then
// Authorization: Bearer.
func apiKeyFrom(r *http.Request) string {
	if k := r.Header.Get(APIKeyHeader); k != "" {
		return k
	}
	auth := r.Header.Get("Authorization")
	if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
		return strings.TrimSpace(rest)
	}
	return ""
}

// tenantMiddleware authenticates and rate-limits every request when a
// keyring is configured, and stamps the resolved tenant into the request
// context either way. GET /healthz stays open so liveness probes need no
// key.
func (cfg *handlerConfig) tenantMiddleware(h http.Handler) http.Handler {
	if cfg.keyring == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			h.ServeHTTP(w, r)
			return
		}
		key := apiKeyFrom(r)
		if key == "" {
			writeErrCode(w, http.StatusUnauthorized, CodeUnauthorized,
				"missing API key: set "+APIKeyHeader+" or Authorization: Bearer")
			return
		}
		t, ok := cfg.keyring.Lookup(key)
		if !ok {
			writeErrCode(w, http.StatusUnauthorized, CodeUnauthorized, "invalid API key")
			return
		}
		// Only mutating methods spend rate-limit tokens: polling a batch to
		// completion is the normal client loop and must not starve the
		// tenant's own submissions.
		switch r.Method {
		case http.MethodPost, http.MethodPut, http.MethodDelete:
			if !cfg.keyring.Allow(t.ID) {
				w.Header().Set("Retry-After", "1")
				writeErrCode(w, http.StatusTooManyRequests, CodeRateLimited,
					"rate limit exceeded for tenant "+t.ID)
				return
			}
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t)))
	})
}

// scoped reports whether tenant scoping is active for this handler (a
// keyring is configured and the request authenticated as a named tenant).
func (cfg *handlerConfig) scoped(t tenant.Tenant) bool {
	return cfg.keyring != nil && t.ID != ""
}

// scopeGraph maps a tenant-visible graph name to its stored name.
func (cfg *handlerConfig) scopeGraph(t tenant.Tenant, name string) string {
	if !cfg.scoped(t) {
		return name
	}
	return t.ID + "/" + name
}

// unscopeGraph strips the tenant prefix off a stored graph name for
// responses. Names outside the tenant's namespace come back unchanged, but
// scoping guarantees handlers never leak them in the first place.
func (cfg *handlerConfig) unscopeGraph(t tenant.Tenant, name string) string {
	if !cfg.scoped(t) {
		return name
	}
	return strings.TrimPrefix(name, t.ID+"/")
}

// owns reports whether the request's tenant may see a job, job group or
// batch that tenant submitted: in keyed mode only that tenant may, and
// every other answers 404, as if the record did not exist. Open mode sees
// everything.
func (cfg *handlerConfig) owns(r *http.Request, tenant string) bool {
	return cfg.keyring == nil || tenant == tenantFrom(r).ID
}

// guard checks owns before h acts on the record the route's {id} names,
// looking its tenant up with tenantOf, so a cross-tenant DELETE or
// long-poll answers notFound having touched nothing. Open mode serves h as
// is, with no lookup.
func (cfg *handlerConfig) guard(tenantOf func(id string) (string, bool), notFound error, h http.HandlerFunc) http.HandlerFunc {
	if cfg.keyring == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if tenant, ok := tenantOf(r.PathValue("id")); !ok || !cfg.owns(r, tenant) {
			writeError(w, notFound)
			return
		}
		h(w, r)
	}
}

// waiterGate bounds concurrent long-poll waiters (and result streams) per
// tenant. Acquire failing means the tenant already parks its full allowance
// of connections; the caller degrades to an immediate snapshot (?wait=) or a
// 429 (streams) with Retry-After so clients back off instead of piling on.
type waiterGate struct {
	mu     sync.Mutex
	counts map[string]int
}

func newWaiterGate() *waiterGate {
	return &waiterGate{counts: make(map[string]int)}
}

func (g *waiterGate) acquire(t tenant.Tenant) bool {
	limit := t.MaxWaiters
	if limit <= 0 {
		limit = defaultMaxWaiters
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.counts[t.ID] >= limit {
		return false
	}
	g.counts[t.ID]++
	return true
}

func (g *waiterGate) release(t tenant.Tenant) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.counts[t.ID]--; g.counts[t.ID] <= 0 {
		delete(g.counts, t.ID)
	}
}
