"""Graph-database substrate: labeled-graph model, synthetic molecule
generators (stand-ins for AIDS / eMol / PubChem), and the Spark edge-table
encoding used by every distributed job."""
