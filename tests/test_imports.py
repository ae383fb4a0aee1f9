"""seqfuse is numpy-only: it imports numpy, the standard library and itself.

The worker-pool modules are imported only inside the functions that start a
pool: at module level they add about 2 MB to every process that imports the
package, and only large inputs use them. hashlib, which loads OpenSSL (about
3.5 MB), is imported only where ``predict`` hashes its inputs.
"""

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqfuse"
LAZY = {"multiprocessing", "concurrent", "hashlib"}


def imported_names(node):
    """Top-level package names that an import statement brings in; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def modules():
    found = sorted(PACKAGE.glob("*.py"))
    assert len(found) >= 8
    return [(m.name, ast.parse(m.read_text(encoding="utf-8"), str(m))) for m in found]


def test_every_import_is_relative_numpy_or_stdlib():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = [
        f"{name}: {imported}"
        for name, tree in modules()
        for node in ast.walk(tree)
        for imported in imported_names(node)
        if imported not in allowed
    ]
    assert outside == []


# The package's modules in import order: each imports only modules before it.
ORDER = ["errors", "util", "sidecar", "tracks", "csvfiles", "align", "synth", "pool",
         "featureio", "nn", "metrics", "training", "cli", "__init__"]


def package_imports(tree):
    """The package modules that the relative imports under ``tree`` name."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])}


def test_package_imports_form_one_acyclic_order():
    graph = {name[:-3]: package_imports(tree) for name, tree in modules()}
    assert sorted(graph) == sorted(ORDER)
    backward = [(module, dep) for module, deps in graph.items() for dep in deps
                if ORDER.index(dep) >= ORDER.index(module)]
    assert backward == []
    # No import is made for type checking only, so every edge above is one
    # that runs. The pool is given each video's size (featureio.input_bytes)
    # and knows nothing of a dataset tree's files or manifest.
    assert [name for name, tree in modules() if "TYPE_CHECKING" in ast.unparse(tree)] == []
    assert graph["pool"] == {"util"}
    assert "Manifest" not in ast.unparse(dict(modules())["pool.py"])


def dotted(node):
    """The dotted name of a name or attribute expression (``np.add.at``); None for others."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = dotted(node.value)
        return owner and f"{owner}.{node.attr}"
    return None


def test_each_bulk_kernel_lives_in_its_concern_module():
    # Text parsing, alignment's scatter-add and the worker pool each have one home.
    calls = {(name, dotted(node.func)) for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Call)}

    def where(callee):
        parts = callee.split(".")
        return {name for name, called in calls
                if called and called.split(".")[-len(parts):] == parts}

    assert where("np.loadtxt") == {"csvfiles.py"}
    assert where("np.add.at") == {"align.py"}
    assert where("ProcessPoolExecutor") == {"pool.py"}


def exported(tree):
    """The names that a module's ``__all__`` lists."""
    return {c.value for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)}


def test_modules_import_only_names_they_use():
    # featureio also holds the three names that perfbench/ reads from it
    # without featureio using them; a name that __all__ lists counts as used.
    unused = {}
    for name, tree in modules():
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names} - {"annotations"}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
        if imported - used:
            unused[name] = imported - used
    assert unused == {"featureio.py": {"fuse", "TokenFeature", "synth_generate"}}


def test_public_api_is_stated_once_as_all():
    # __init__ imports exactly the names that __all__ lists, so every other
    # name is internal and is imported from its own module; every error
    # class is public.
    import seqfuse

    trees = dict(modules())
    imported = [alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert exported(trees["__init__.py"]) == set(seqfuse.__all__)
    assert len(set(seqfuse.__all__)) == len(seqfuse.__all__)
    assert sorted(imported) == sorted(set(seqfuse.__all__) - {"__version__"})
    assert all(hasattr(seqfuse, name) for name in seqfuse.__all__)
    errors = {node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    assert len(errors) == 16 and errors <= set(seqfuse.__all__)


def test_train_flags_are_train_config_fields():
    # build_parser derives one train flag from each TrainConfig field but the
    # named exclusion, so cli names no field's flag itself.
    from dataclasses import fields

    from seqfuse import TrainConfig, cli

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in sub.choices["train"]._actions} - {"help", "config", "manifest",
                                                               "out_dir"}
    names = {f.name for f in fields(TrainConfig)}
    assert set(cli.UNFLAGGED_FIELDS) == {"adam_beta1", "adam_beta2", "adam_eps"}
    assert flags == names - set(cli.UNFLAGGED_FIELDS)
    written = {c.value for c in ast.walk(dict(modules())["cli.py"]) if isinstance(c, ast.Constant)}
    assert written & {"--" + name.replace("_", "-") for name in names} == {"--seed"}  # synth's


def test_cli_main_alone_pins_blas():
    # cli.main runs inside the one-thread BLAS block, and nothing else in the
    # package pins BLAS, so library callers keep their own setting.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]
    assert {(name, function) for name, function, called in calls
            if called == "_one_blas_thread"} == {("cli.py", "main")}
    assert {(name, function) for name, function, called in calls
            if called == "_openblas_thread_functions"} == {("cli.py", "_one_blas_thread")}
    (main,) = [node for node in dict(modules())["cli.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    (block,) = main.body
    assert isinstance(block, ast.With)
    assert [dotted(item.context_expr.func) for item in block.items] == ["_one_blas_thread"]
    setters = [name for name, tree in modules() if "set_num_threads" in ast.unparse(tree)]
    assert setters == ["cli.py"]


def test_pool_modules_are_imported_only_inside_functions():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def eager(node):
        """Imports of LAZY modules under ``node`` that run outside any function body."""
        found = [f"line {node.lineno}: {n}" for n in imported_names(node) if n in LAZY]
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, functions):
                found += eager(child)
        return found

    hoisted = [f"{name} {found}" for name, tree in modules() for found in eager(tree)]
    assert hoisted == []
    # The grouped loader does import them, so the check above has something to find.
    pool_helper = dict(modules())["pool.py"]
    assert any(n in LAZY for node in ast.walk(pool_helper) for n in imported_names(node))
    assert any("hashlib" in imported_names(node) for node in ast.walk(dict(modules())["cli.py"]))


def calls_by_function(tree):
    """(enclosing function name, called name) for every call under ``tree``.

    The called name is a bare function's name or a method's attribute name,
    prefixed with its object's name when that is a plain name (``json.loads``).
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.append((function, func.id))
            elif isinstance(func, ast.Attribute):
                owner = f"{func.value.id}." if isinstance(func.value, ast.Name) else ""
                found.append((function, owner + func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_input_boundary():
    # Every input file goes through util's readers, and every JSON text
    # through util.read_json_object, which rejects a key given twice, or
    # through load_checkpoint, which parses a header that the package wrote.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]
    file_reads = [(name, function, called) for name, function, called in calls
                  if called.split(".")[-1] in {"open", "read_bytes", "read_text"}]
    assert file_reads and {name for name, _, _ in file_reads} == {"util.py"}
    json_parses = {(name, function) for name, function, called in calls
                   if called in {"json.loads", "json.load"}}
    assert json_parses == {("util.py", "read_json_object"), ("training.py", "load_checkpoint")}


def test_one_scoring_path():
    # Every prediction is made by metrics._predict_videos, the one place
    # that decides what a prediction that is not finite means.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]
    predicts = {(name, function) for name, function, called in calls
                if called.split(".")[-1] == "predict"}
    assert predicts == {("metrics.py", "_predict_videos")}
    refusals = {(name, function) for name, function, called in calls
                if called.split(".")[-1] == "NonFiniteOutputError"}
    assert refusals == {("metrics.py", "_predict_videos")}


def test_one_lstm_step_loop():
    # forward and predict run the one recurrence loop, nn._lstm_steps, so
    # their steps cannot drift apart; it is the only place that runs tanh in
    # place.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]
    callers = {(name, function) for name, function, called in calls
               if called.split(".")[-1] == "_lstm_steps"}
    assert callers == {("nn.py", "forward"), ("nn.py", "_predict_batch")}
    in_place = {node.name for node in ast.walk(dict(modules())["nn.py"])
                if isinstance(node, ast.FunctionDef)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == "tanh"
                and (len(call.args) > 1 or any(k.arg == "out" for k in call.keywords))}
    assert in_place == {"_lstm_steps"}


def test_pool_serves_align_and_scoring_only():
    # A pool worker sends its results back pickled, so only callers whose
    # workers send back little use the grouped loader: align (manifest
    # entries) and scoring (labels and predictions, or prediction text).
    # Loading train and devel this way would send every fused matrix back.
    # Each caller gives the pool its videos' sizes from featureio.input_bytes.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]

    def callers(callee):
        return {(name, function) for name, function, called in calls
                if called.split(".")[-1] == callee}

    assert callers("map_video_groups") == {("featureio.py", "align_dataset"),
                                           ("metrics.py", "score_partition"),
                                           ("metrics.py", "predict_partition")}
    assert callers("input_bytes") == callers("map_video_groups")


def test_one_prediction_format():
    # One function builds a prediction file's text, and only the group
    # function that scores each video calls it, so every pooled worker
    # formats the videos it scored.
    texts = {(name, node.name) for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(c, ast.Constant) and "frame_ms,prediction" in str(c.value)
                     for c in ast.walk(node))}
    assert texts == {("metrics.py", "prediction_csv")}
    callers = {(name, function) for name, tree in modules()
               for function, called in calls_by_function(tree)
               if called.split(".")[-1] == "prediction_csv"}
    assert callers == {("metrics.py", "_predict_group")}


def test_one_sidecar_format():
    # One function writes the parse cache beside a tree's Feature CSV and one
    # reads it, each through the one header layout; the reader takes the
    # file's bytes from util.read_input, as every input is read. featureio
    # alone imports and calls them: _write_video writes each sidecar, and
    # read_feature_csv is the one reader of a tree's Feature CSV, so csvfiles
    # only parses. Only sidecar itself spells a sidecar's name.
    layout = {(name, node.name) for name, tree in modules() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and any(isinstance(n, ast.Name) and n.id == "_SIDECAR_HEAD" for n in ast.walk(node))}
    assert layout == {("sidecar.py", "sidecar_bytes"), ("sidecar.py", "read_sidecar")}
    calls = {(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)}
    callers = {called: {(name, function) for name, function, c in calls if c == called}
               for called in ("sidecar_bytes", "read_sidecar")}
    assert callers == {"sidecar_bytes": {("featureio.py", "_write_video")},
                       "read_sidecar": {("featureio.py", "read_feature_csv")}}
    assert ("sidecar.py", "read_sidecar", "read_input") in calls
    trees = dict(modules())
    assert {name for name, tree in trees.items() if "sidecar" in package_imports(tree)} == {
        "featureio.py"}
    assert [name for name, tree in trees.items() if "SIDECAR_SUFFIX" in ast.unparse(tree)] == [
        "sidecar.py"]


def test_one_stat_helper_and_one_output_check():
    # One function stats files, for featureio.input_bytes' sizes, for the
    # identity of the files that the output check compares and for an output
    # where a directory is. align, train, evaluate and predict each refuse an
    # output that is one of their inputs through the one output check, and
    # align walks its outputs once.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]
    stats = {(name, function) for name, function, called in calls
             if called.split(".")[-1] in {"stat", "lstat", "fstat", "getsize"}}
    assert stats == {("util.py", "_stat")}
    callees = {}
    for _, function, called in calls:
        callees.setdefault(function, set()).add(called.split(".")[-1])

    def reached(function):
        """Every name that ``function`` calls, directly or through the package's functions."""
        found, todo = set(), [function]
        while todo:
            for called in callees.get(todo.pop(), set()) - found:
                found.add(called)
                todo.append(called)
        return found

    assert all("check_outputs" in reached(f) for f in ("align_dataset", "cmd_train",
                                                          "cmd_predict", "cmd_evaluate"))
    assert all({"_regular_file", "_stat"} <= reached(f) for f in ("input_bytes", "check_outputs"))
    checks = [called for _, function, called in calls
              if function == "align_dataset" and called == "check_outputs"]
    assert checks == ["check_outputs"]


def test_input_readers_map_the_whole_manifest():
    # The output check guards every manifest video's inputs, so input_readers
    # takes no list of videos that a caller could narrow to the ones it scores.
    (node,) = [n for n in ast.walk(dict(modules())["featureio.py"])
               if isinstance(n, ast.FunctionDef) and n.name == "input_readers"]
    args = node.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["manifest", "others"]
    assert args.vararg is None and args.kwarg is None
    callers = [(name, function) for name, tree in modules()
               for function, called in calls_by_function(tree)
               if called.split(".")[-1] == "input_readers"]
    assert sorted(callers) == [("cli.py", "_scored_partition"), ("cli.py", "cmd_train"),
                               ("featureio.py", "align_dataset")]


def test_one_frame_value_writer_one_label_check_one_tree_start():
    # Label files and prediction files share one row writer; the label-value
    # rule is stated once for label files read or written and for sequences
    # in memory; and one function starts a dataset tree, removing its old
    # manifest before any file is written.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]

    def callers(callee):
        return {(name, function) for name, function, called in calls
                if called.split(".")[-1] == callee}

    assert callers("frame_csv") == {("csvfiles.py", "write_label_csv"),
                                    ("metrics.py", "prediction_csv")}
    assert callers("_label_checks") == {("csvfiles.py", "read_label_csv"),
                                        ("csvfiles.py", "write_label_csv"),
                                        ("tracks.py", "__post_init__")}
    unlinks = {(name, node.name) for name, tree in modules() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node)
               if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "unlink"
               and any(isinstance(n, ast.Name) and n.id == "MANIFEST_NAME"
                       for n in ast.walk(call.func))}
    assert unlinks == {("featureio.py", "_start_tree")}
    assert callers("_start_tree") == {("featureio.py", "write_dataset"),
                                      ("featureio.py", "align_dataset")}


def test_one_token_row_rule_and_a_plain_token_record():
    # tracks._token_checks states the token-row rule (a nonempty span, then
    # a finite vector) once, for Feature CSV rows and for the tokens that a
    # TokenTrack is built from. TokenFeature is a record that checks nothing.
    trees = dict(modules())
    stating = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                       and (") is empty" in c.value or "NaN/Inf" in c.value)
                       for c in ast.walk(node))}
    assert stating == {("tracks.py", "_token_checks")}
    calls = [(name, function, called) for name, tree in trees.items()
             for function, called in calls_by_function(tree)]
    assert {(name, function) for name, function, called in calls
            if called.split(".")[-1] == "_token_checks"} == {
        ("csvfiles.py", "parse_feature_csv"), ("tracks.py", "__init__")}
    (record,) = [node for node in ast.walk(trees["tracks.py"])
                 if isinstance(node, ast.ClassDef) and node.name == "TokenFeature"]
    assert not [n for n in ast.walk(record) if isinstance(n, (ast.FunctionDef, ast.Lambda))]
    assert [n.target.id for n in record.body if isinstance(n, ast.AnnAssign)] == [
        "start_ms", "end_ms", "vector"]


def test_one_frame_shape_rule_and_one_manifest_entry_rule():
    # FrameTrack alone states a track's shape (2-D, at least one frame and
    # one column), so no sequence, alignment or writer checks it again. One
    # function states a manifest entry's rule (the id, the partition, the
    # tracks and targets and their names) for the manifest reader and for
    # both tree writers, and only it tests a partition against PARTITIONS.
    trees = dict(modules())

    def stating(text):
        """(module, owner, function) of each function with a string constant holding ``text``."""
        return {(name, getattr(owner, "name", None), node.name)
                for name, tree in trees.items() for owner in ast.walk(tree)
                for node in ast.iter_child_nodes(owner) if isinstance(node, ast.FunctionDef)
                and any(isinstance(c, ast.Constant) and text in str(c.value)
                        for c in ast.walk(node))}

    assert stating("frames must be (t, dim)") == {("tracks.py", "FrameTrack", "__post_init__")}
    assert stating("zero frames") == set()
    assert stating("needs features and labels") == {("featureio.py", None, "_check_entry")}
    calls = [(name, function, called) for name, tree in trees.items()
             for function, called in calls_by_function(tree)]
    assert {(name, function) for name, function, called in calls if called == "_check_entry"} == {
        ("featureio.py", "load_manifest"), ("featureio.py", "write_dataset"),
        ("featureio.py", "align_dataset")}
    membership = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  for test in ast.walk(node) if isinstance(test, ast.Compare)
                  and any(isinstance(op, (ast.In, ast.NotIn)) for op in test.ops)
                  and any(getattr(c, "id", None) == "PARTITIONS" for c in test.comparators)}
    assert membership == {("featureio.py", "_check_entry")}


def test_one_integer_rule_and_model_dims_stated_once():
    # Every count a run reads is checked by util.check_int, the one function
    # that states the integer rule and builds its message. The model's dims
    # are derived from a config and its track dims by training.model_dims,
    # for train, for save_checkpoint, which refuses a model of other dims,
    # and for load_checkpoint, which reads no dims from a header.
    messages = {(name, node.name) for name, tree in modules() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(c, ast.Constant) and "must be an integer" in str(c.value)
                        for c in ast.walk(node))}
    assert messages == {("util.py", "check_int")}
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]

    def callers(callee):
        return {(name, function) for name, function, called in calls
                if called.split(".")[-1] == callee}

    assert callers("check_int") == {
        ("tracks.py", "_check_frame_len"), ("tracks.py", "__init__"),
        ("align.py", "align_tokens_to_frames"), ("synth.py", "synth_generate"),
        ("nn.py", "param_layout"), ("training.py", "__post_init__"),
        ("training.py", "chunk"), ("training.py", "load_checkpoint"),
    }
    assert callers("model_dims") == {("training.py", "train"),
                                     ("training.py", "save_checkpoint"),
                                     ("training.py", "load_checkpoint")}
    (loader,) = [n for n in ast.walk(dict(modules())["training.py"])
                 if isinstance(n, ast.FunctionDef) and n.name == "load_checkpoint"]
    keys = [n.slice.value for n in ast.walk(loader)
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)]
    assert "config" in keys and "dims" not in keys


def test_one_target_lookup_track_order_check_rate_loop_and_dropout_scale():
    # tracks.target_labels is the one place that finds a video's labels for
    # a target, for chunk, train and ccc_report, so a missing target has
    # one message. training._check_track_order is the one check that the
    # tracks are config.track_order's, for train and for both checkpoint
    # ends. TrainConfig states its [0, 1) rule once, and the dropout scale
    # of the dropout site and of backward does not branch on whether masks
    # were drawn.
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]

    def callers(callee):
        return {(name, function) for name, function, called in calls
                if called.split(".")[-1] == callee}

    assert callers("TargetMissingError") == {("tracks.py", "target_labels")}
    assert callers("target_labels") == {("training.py", "chunk"), ("training.py", "train"),
                                        ("metrics.py", "ccc_report")}
    assert callers("_check_track_order") == {("training.py", "train"),
                                             ("training.py", "save_checkpoint"),
                                             ("training.py", "load_checkpoint")}
    training = dict(modules())["training.py"]
    order_readers = {node.name for node in ast.walk(training)
                     if isinstance(node, ast.FunctionDef)
                     and any(isinstance(n, ast.Attribute) and n.attr == "track_order"
                             for n in ast.walk(node))}
    assert order_readers == {"__post_init__", "_check_track_order"}
    assert (PACKAGE / "training.py").read_text(encoding="utf-8").count("must lie in [0, 1)") == 1
    scales = {node.name: [a.value for a in ast.walk(node) if isinstance(a, ast.Assign)
                          and [getattr(t, "id", None) for t in a.targets] == ["keep_scale"]]
              for node in ast.walk(dict(modules())["nn.py"])
              if isinstance(node, ast.FunctionDef) and node.name in ("_dropout", "backward")}
    assert sorted(scales) == ["_dropout", "backward"]
    assert all(len(values) == 1 and not any(isinstance(n, ast.IfExp) for n in ast.walk(values[0]))
               for values in scales.values())


def test_one_relu_layer_output_unit_and_dropout_site():
    # The network is written once: one function computes both relu layers,
    # one the output unit and one a dropout site (its mask draw and scale),
    # and forward and _predict_batch both call them. So outside the layout
    # table and backward's gradient lines no function names a layer's
    # tensors. ForwardTrace holds only what backward reads, and backward
    # takes each relu-and-dropout gate from the stored activation: its only
    # ifs are its input checks, each of which raises.
    nn = dict(modules())["nn.py"]
    functions = {node.name: node for node in ast.walk(nn) if isinstance(node, ast.FunctionDef)}

    def naming(constant):
        return {name for name, node in functions.items()
                if any(isinstance(c, ast.Constant) and c.value == constant
                       for c in ast.walk(node))}

    for tensor in ("projection_w", "projection_b", "head_hidden_w", "head_hidden_b"):
        assert naming(tensor) == {"_layout", "backward"}, tensor
    assert naming("head_out_w") == {"_layout", "_output_unit", "backward"}
    layers = sorted((function, call.args[1].value)
                    for function, node in functions.items() for call in ast.walk(node)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_relu_layer")
    assert layers == [("_predict_batch", "head_hidden"), ("_predict_batch", "projection"),
                      ("forward", "head_hidden"), ("forward", "projection")]
    calls = [(name, function, called) for name, tree in modules()
             for function, called in calls_by_function(tree)]

    def callers(callee):
        return {(name, function) for name, function, called in calls
                if called.split(".")[-1] == callee}

    assert {c for c in callers("maximum") if c[0] == "nn.py"} == {("nn.py", "_relu_layer")}
    assert callers("_output_unit") == {("nn.py", "forward"), ("nn.py", "_predict_batch")}
    assert callers("random") == {("nn.py", "_dropout")}
    assert callers("_dropout") == {("nn.py", "forward")}
    (trace,) = [node for node in ast.walk(nn)
                if isinstance(node, ast.ClassDef) and node.name == "ForwardTrace"]
    fields = [n.target.id for n in trace.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["inputs", "embed", "gates", "cell", "hidden", "head_act",
                      "predictions", "dropout_rate"]
    backward = functions["backward"]
    assert not any(isinstance(n, ast.IfExp) for n in ast.walk(backward))
    branches = [n for n in ast.walk(backward) if isinstance(n, ast.If)]
    assert len(branches) == 2
    assert all(not n.orelse and [type(b) for b in n.body] == [ast.Raise] for n in branches)
