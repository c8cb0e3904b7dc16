"""Finite-group character toolkit: exact cyclotomics, class functions,
induction/restriction, Mackey decomposition, and Galois conjugation.

Nothing is re-exported here; import from the submodules `cyclotomic`,
`groups`, `characters` and `campaigns`."""
