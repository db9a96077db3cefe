package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"grp/internal/campaign"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/workloads"
)

// maxRequestBody bounds a sweep submission. Specs are short strings; a
// megabyte of JSON is either a bug or an attack.
const maxRequestBody = 1 << 20

// SweepRequest is the JSON body of POST /v1/sweeps: the same sweep-spec
// grammar grpsweep takes on the command line, plus the multi-tenant
// scheduling knobs.
type SweepRequest struct {
	// Spec is the sweep grammar, e.g.
	// "schemes=base,grp/var × kernels=mcf,art × l2.size=512K,1M".
	Spec string `json:"spec"`
	// Factor is the workload scale: test, small (default), full.
	Factor string `json:"factor,omitempty"`
	// Policy is the compiler spatial policy: default, conservative,
	// aggressive.
	Policy string `json:"policy,omitempty"`
	// Tenant names the submitting client for fairness accounting and
	// the sweep listing; empty means "anon".
	Tenant string `json:"tenant,omitempty"`
	// Weight is the sweep's weighted-round-robin share, 1..16
	// (default 1): a weight-2 sweep is offered twice as many worker
	// slots per scheduling rotation as a weight-1 one.
	Weight int `json:"weight,omitempty"`
	// DryRun asks for the expansion summary (cell count, axes,
	// estimated cache hit rate) without admitting the sweep.
	DryRun bool `json:"dry_run,omitempty"`
}

// maxWeight bounds a tenant's WRR share so one client cannot starve the
// rest by self-declaring an enormous weight.
const maxWeight = 16

// RequestError is a structured 400: which field was wrong and why. The
// decoder returns it for every malformed submission, so clients get a
// machine-readable reason instead of a stack trace — and the fuzz
// harness can assert no input escapes this shape.
type RequestError struct {
	Field string `json:"field,omitempty"`
	Msg   string `json:"error"`
}

// Error implements error.
func (e *RequestError) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s: %s", e.Field, e.Msg)
}

func badRequest(field, format string, args ...interface{}) *RequestError {
	return &RequestError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// DecodeSweepRequest parses and validates a sweep-submission body. Any
// failure — malformed JSON, unknown fields, a bad spec, out-of-range
// knobs — is a *RequestError; it never panics on arbitrary input.
// Validation includes expanding the spec so a rejected submission never
// reaches the scheduler. The defaults (factor small, policy default,
// weight 1) are applied in place.
func DecodeSweepRequest(data []byte) (*SweepRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("", "decoding request body: %v", err)
	}
	// Trailing garbage after the JSON value is a malformed request, not
	// an ignorable suffix.
	if dec.More() {
		return nil, badRequest("", "trailing data after request body")
	}
	if req.Spec == "" {
		return nil, badRequest("spec", "required (sweep grammar, e.g. %q)", "schemes=base,grp/var × kernels=mcf")
	}
	if req.Factor == "" {
		req.Factor = "small"
	}
	if req.Policy == "" {
		req.Policy = "default"
	}
	if req.Tenant == "" {
		req.Tenant = "anon"
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	if req.Weight < 1 || req.Weight > maxWeight {
		return nil, badRequest("weight", "%d out of range [1, %d]", req.Weight, maxWeight)
	}
	if _, err := workloads.ParseFactor(req.Factor); err != nil {
		return nil, badRequest("factor", "%v", err)
	}
	if _, err := compiler.ParsePolicy(req.Policy); err != nil {
		return nil, badRequest("policy", "%v", err)
	}
	if _, err := req.Grid(); err != nil {
		return nil, badRequest("spec", "%v", err)
	}
	return &req, nil
}

// Options resolves the request's base simulation options.
func (r *SweepRequest) Options() (core.Options, error) {
	f, err := workloads.ParseFactor(r.Factor)
	if err != nil {
		return core.Options{}, err
	}
	p, err := compiler.ParsePolicy(r.Policy)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{Factor: f, Policy: p}, nil
}

// Grid expands the request's spec against its resolved options.
func (r *SweepRequest) Grid() (*campaign.Grid, error) {
	base, err := r.Options()
	if err != nil {
		return nil, err
	}
	return campaign.ParseSpec(r.Spec, base)
}
