package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Spec is the declarative quota configuration — what cmd/resdsrv loads
// from its -quotas file. The zero Spec is valid: no declared tenants,
// every tenant discovered at runtime owning the whole capacity.
type Spec struct {
	// Mode is "hard" or "" (the same thing): the one way budgets are
	// enforced, spelled out for files that name it.
	Mode string `json:"mode,omitempty"`
	// DefaultShare is the share of the capacity tenants not listed below
	// receive (0 = 1.0).
	DefaultShare float64 `json:"default_share,omitempty"`
	// Tenants declare shares of the capacity.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// TenantSpec is one tenant's share of the capacity.
type TenantSpec struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

// normalize validates the spec and fills defaults.
func (s Spec) normalize() (Spec, error) {
	if s.Mode != "" && s.Mode != "hard" {
		return s, fmt.Errorf("%w: mode %q (hard is the only mode)", ErrConfig, s.Mode)
	}
	if s.DefaultShare == 0 {
		s.DefaultShare = 1
	}
	if err := validShare("default_share", s.DefaultShare); err != nil {
		return s, err
	}
	seen := map[string]bool{}
	for _, t := range s.Tenants {
		if err := validName(t.Name); err != nil {
			return s, err
		}
		if seen[t.Name] {
			return s, fmt.Errorf("%w: tenant %q declared twice", ErrConfig, t.Name)
		}
		seen[t.Name] = true
		if err := validShare("tenant "+t.Name, t.Share); err != nil {
			return s, err
		}
	}
	return s, nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: tenant with empty name", ErrConfig)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: tenant name %q is %d bytes long (max %d)", ErrConfig, name[:16]+"…", len(name), MaxNameLen)
	}
	return nil
}

func validShare(what string, share float64) error {
	if share <= 0 || share > 1 || math.IsNaN(share) {
		return fmt.Errorf("%w: %s share %v outside (0,1]", ErrConfig, what, share)
	}
	return nil
}

// ParseSpec decodes a JSON quota spec, rejecting unknown fields so a
// typo'd key fails loudly instead of silently granting full shares.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if _, err := s.normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a quota spec file (the -quotas flag).
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
