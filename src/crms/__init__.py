"""Complex-regularized multisymplectic geometry on the flat torus.

Linear CRMS-form validation and Darboux frames, polar-decomposition
construction of compatible metric / almost-complex pairs, a discretized
multisymplectic action with exact discrete gradient, principal-symbol
diagnostics, and a Fueter gradient-flow integrator.
"""
