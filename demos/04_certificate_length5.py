"""Building, rendering, and attacking the length-5 proof certificate.

A certificate assigns every left orbit (i, s) to a right orbit k so
that the coefficient and majorization conditions hold line by line and
no Hölder slot is spent twice. The checker is the trusted kernel: it
re-derives everything with exact integer and rational arithmetic.
"""

from gradenorm import (
    Certificate,
    CertificateLine,
    GradingSignature,
    certificate_to_json,
    certificate_to_report,
    check_certificate,
    check_line,
    search_certificate,
)

sig = GradingSignature(5)

print("=" * 72)
print("The certificate the builder emits for r = 5")
print("=" * 72)
cert = search_certificate(sig)
print(certificate_to_report(sig, cert).render_text())

print()
print("JSON wire form (stable format, also written by `gradenorm prove --out`):")
print(f"  {certificate_to_json(cert)}")

print()
print("=" * 72)
print("Why individual lines are admissible")
print("=" * 72)
line = CertificateLine(2, 3, 3)
print(f"  line (i=2, s=3 -> k=3): check_line says {check_line(sig, line)!r} (None = ok)")
print("    coefficient: binom(8,3) = 56 <= binom(10,3) = 120")
print("    majorization: shadow (28/5, 12/5) dominates orbit (5, 3)")

bad = CertificateLine(3, 1, 3)
print(f"  line (i=3, s=1 -> k=3): check_line says {check_line(sig, bad)!r}")
print("    the shadow (21/5, 9/5) fails to dominate the orbit (5, 1)")

print()
print("=" * 72)
print("Tampering is caught by the checker")
print("=" * 72)
missing = Certificate(5, tuple(ln for ln in cert.lines if (ln.level, ln.split) != (2, 3)))
report = check_certificate(sig, missing)
print(f"  drop line (2,3): valid={report.valid}, reasons={[v.reason for v in report.violations]}")

retarget = Certificate(
    5,
    tuple(
        CertificateLine(3, 2, 1) if (ln.level, ln.split) == (3, 2) else ln
        for ln in cert.lines
    ),
)
report = check_certificate(sig, retarget)
print(f"  retarget (3,2)->k=1: valid={report.valid}, reasons={[v.reason for v in report.violations]}")
print("    (binom(6,2) = 15 exceeds binom(10,1) = 10, and the k=1 slot is already spent)")
