"""qsgames: a desk-scale workbench for classical and quantum encryption
security games.

Toy building blocks (generators, PRFs, permutations, trapdoor
permutations), encryption schemes with deliberately broken separation
counterexamples, exact small-register quantum simulation, tree ORAM
and its quantum variant, the security-game harnesses, and the concrete
attacks that certify or break each construction.
"""

__version__ = "0.1.0"
