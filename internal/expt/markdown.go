package expt

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Markdown renders the report as a markdown section: caption'd tables,
// check list, and notes. MarkdownAll (resexp -run all -md) concatenates
// these into one machine-regenerated results document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "*Paper artifact:* %s\n\n", r.Paper)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "**%s**\n\n%s\n", t.Caption, tableMarkdown(t.Table))
	}
	b.WriteString("Checks:\n\n")
	for _, c := range r.Checks {
		mark := "x"
		if !c.Pass {
			mark = " "
		}
		fmt.Fprintf(&b, "- [%s] %s — %s\n", mark, c.Name, c.Detail)
	}
	b.WriteString("\n")
	return b.String()
}

// tableMarkdown converts a stats.Table via its CSV form (cells are known
// not to contain commas: they are numbers and identifiers).
func tableMarkdown(t *stats.Table) string {
	lines := strings.Split(strings.TrimSpace(t.CSV()), "\n")
	if len(lines) == 0 {
		return ""
	}
	var b strings.Builder
	for i, line := range lines {
		cells := strings.Split(line, ",")
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
		if i == 0 {
			sep := make([]string, len(cells))
			for j := range sep {
				sep[j] = "---"
			}
			b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
		}
	}
	return b.String()
}

// MarkdownAll renders a full document for a set of reports.
func MarkdownAll(reports []*Report, cfg Config) string {
	var b strings.Builder
	b.WriteString("# Regenerated experiment record\n\n")
	fmt.Fprintf(&b, "Generated by `resexp` with seed %d (quick=%v). ", cfg.Seed, cfg.Quick)
	pass, total := 0, 0
	for _, r := range reports {
		for _, c := range r.Checks {
			total++
			if c.Pass {
				pass++
			}
		}
	}
	fmt.Fprintf(&b, "%d/%d checks passed.\n\n", pass, total)
	for _, r := range reports {
		b.WriteString(r.Markdown())
	}
	return b.String()
}
