"""JUBE-like workflow engine (paper §III-A3).

CARAML is "fully characterized by configuration files, called JUBE
scripts, where hyperparameters and execution steps are defined".  This
package re-implements the JUBE subset CARAML uses:

* parameter sets with tag-conditional parameters and automatic
  parameter-space expansion (Cartesian product over multi-valued
  parameters),
* ``$name`` substitution resolved to a fixpoint,
* steps with dependencies, executed as workpackages per parameter
  combination,
* YAML and XML script formats (the paper ships the LLM script as YAML
  and the ResNet50 script as XML "for illustrative reasons" -- so do
  we),
* tag filtering (``jube run script --tag A100``),
* result tables in compact tabular form,
* a ``continue`` operation for post-processing steps.

Steps execute named *operations* dispatched through a registry; the
CARAML benchmarks register operations like ``llm_train`` that drive the
simulated cluster.
"""

from repro.jube.parameters import Parameter, ParameterSet, expand_parameter_space, substitute
from repro.jube.steps import Step, Workpackage, order_steps
from repro.jube.script import BenchmarkScript, load_script, load_yaml_script, load_xml_script
from repro.jube.result import ResultTable, render_table
from repro.jube.runner import JubeRunner, JubeRun, OperationRegistry, parse_operation
from repro.jube.patterns import Pattern, PatternSet, MEGATRON_PATTERNS, TFCNN_PATTERNS
from repro.jube.rundir import save_run, load_run, resolve_run_id, run_directory_for

__all__ = [
    "Pattern",
    "PatternSet",
    "MEGATRON_PATTERNS",
    "TFCNN_PATTERNS",
    "save_run",
    "load_run",
    "resolve_run_id",
    "run_directory_for",
    "Parameter",
    "ParameterSet",
    "expand_parameter_space",
    "substitute",
    "Step",
    "Workpackage",
    "order_steps",
    "BenchmarkScript",
    "load_script",
    "load_yaml_script",
    "load_xml_script",
    "ResultTable",
    "render_table",
    "JubeRunner",
    "JubeRun",
    "OperationRegistry",
    "parse_operation",
]
