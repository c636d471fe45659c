"""Local databases of the mediation layer.

"Each peer p maintains a local database DB_p ... the physical schemas
of the local databases can all be identical and consist of three
attributes S_DB = (subject, predicate, object).  The local databases
support three standard relational algebra operators: projection pi,
selection sigma and (self) join" (§2.2).

:class:`~repro.storage.triplestore.TripleStore` *is* ``DB_p``: the
triple table with hash indexes on all three positions.  It answers a
triple pattern with exactly the paper's
``pi_pos(x) sigma_pos(const)=const (DB)`` plan
(:meth:`~repro.storage.triplestore.TripleStore.match`); projection and
join over the matched rows are the operator plane's: one
:class:`~repro.exec.operators.Answer` per reformulation folds them
with :func:`~repro.exec.bindings.join_batches` and projects the
query's distinguished variables.
"""

from repro.storage.triplestore import TripleStore

__all__ = ["TripleStore"]
