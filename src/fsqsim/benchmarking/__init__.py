"""Protocol generators, simulators and fitters, one module per family:
``singleq`` (CRB), ``twoq`` (SSB, Bell states with parity analysis, loss
excision) and ``ramsey`` (Ramsey coherence). The package re-exports
nothing, so loading one protocol module loads no other."""
