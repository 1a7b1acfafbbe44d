package psl

import "strings"

// oraclePublicSuffix and oracleRegistrableDomain are the reference
// implementations the allocation-free walk replaced: they split the
// domain into labels and probe the rule map with each suffix joined
// back together. FuzzPublicSuffix and TestOracleAgreesOnCorpus hold
// the walk to them.
func oraclePublicSuffix(l *List, domain string) string {
	domain = strings.ToLower(strings.Trim(domain, "."))
	if domain == "" || strings.Contains(domain, "..") {
		return ""
	}
	labels := strings.Split(domain, ".")
	bestLen := 0
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		if kind, ok := l.rules[cand]; ok {
			n := len(labels) - i
			switch kind {
			case ruleException:
				return strings.Join(labels[i+1:], ".")
			case ruleNormal:
				if n > bestLen {
					bestLen = n
				}
			case ruleWildcard:
				if i > 0 && n+1 > bestLen {
					bestLen = n + 1
				}
			}
		}
	}
	if bestLen == 0 {
		bestLen = 1
	}
	return strings.Join(labels[len(labels)-bestLen:], ".")
}

func oracleRegistrableDomain(l *List, domain string) string {
	domain = strings.ToLower(strings.Trim(domain, "."))
	if domain == "" {
		return ""
	}
	suffix := oraclePublicSuffix(l, domain)
	if suffix == "" || suffix == domain {
		return ""
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix
}
