"""The design record cites only what exists (its section titles, and the program names it spells)
and stays within 1,000 lines; the comments and docstrings of the program and its tests name only
private names that exist; and README.md is the package's map: one short bullet per module, every
exported name, and no private name, leaving the rules to the record.

A citation is `docs/DECISIONS.md`, "<title>" (or "…", "…" for several), a title that may be a
prefix of the heading, as "No symbol calculus" is.  Code, tests, README.md and ROADMAP.md cite
the record's `## ` headings; CHANGES.md may also cite a title of the record's earlier layout,
which the record's last table maps to the sections that now hold its rules.
"""

import ast
import importlib
import inspect
import io
import json
import pathlib
import re
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECISIONS = (ROOT / "docs" / "DECISIONS.md").read_text()
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.stem for p in (ROOT / "src" / "ellreg").glob("*.py") if p.stem != "__init__")

# the file's name, a few words (", ", " gains ", " (", a line break), then a run of quoted titles
_CITATION = re.compile(r'DECISIONS(?:\.md)?`?[^"`]{0,30}?((?:"[^"]+"(?:,\s*)?)+)')
_OLD_TITLES = "## Old section titles"


def _citations(text: str) -> list:
    return [" ".join(title.split()) for run in _CITATION.findall(text)
            for title in re.findall(r'"([^"]+)"', run)]


def _headings() -> list:
    return re.findall(r"^## (.+)$", DECISIONS, flags=re.M)


def _title_map() -> dict:
    """The last table: each old title -> the new section titles that hold its rules."""
    table = DECISIONS[DECISIONS.index(_OLD_TITLES):]
    rows = [line.strip("|").split("|") for line in table.splitlines() if line.startswith("| ")]
    return {old.strip(): [s.strip() for s in new.split(";")] for old, new in rows[1:]}


def _cited_in(*patterns) -> list:
    files = [f for pattern in patterns for f in sorted(ROOT.glob(pattern))
             if f.name != pathlib.Path(__file__).name]  # whose patterns spell the form
    return [(f.relative_to(ROOT).as_posix(), title) for f in files
            for title in _citations(f.read_text(encoding="utf-8"))]


def test_every_cited_section_is_a_heading():
    headings = _headings()
    cited = _cited_in("src/**/*.py", "tests/**/*.py", "README.md", "ROADMAP.md")
    assert cited  # the casework and ROADMAP citations at least
    missing = [(f, t) for f, t in cited if not any(h.startswith(t) for h in headings)]
    assert not missing, missing


def test_changes_cite_a_heading_or_an_old_title():
    titles = _headings() + list(_title_map())
    cited = _cited_in("CHANGES.md")
    missing = [t for _, t in cited if not any(h.startswith(t) for h in titles)]
    assert not missing, missing


def test_old_titles_map_to_headings():
    headings, mapping = set(_headings()), _title_map()
    assert len(mapping) >= 25
    assert not [s for sections in mapping.values() for s in sections if s not in headings]


def test_the_record_stays_within_its_line_bound():
    # the standing rules only: a rule that grows replaces text rather than adding it
    assert len(DECISIONS.splitlines()) <= 1000


def _dotted_names(text: str) -> set:
    """Backticked names `module.attr...` or `ellreg.module...` of an ellreg module, less the
    perfbench metric names (`grid.transforms`), which name counters, not attributes."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        name = re.match(r"[\w.]*", span).group().rstrip(".")
        parts = name.split(".")
        prefixed = parts[0] == "ellreg"
        parts = parts[1:] if prefixed else parts
        if (parts and parts[0] in MODULES and (len(parts) > 1 or prefixed)
                and not name.endswith(".py") and name not in metrics):
            names.add(".".join(parts))
    return names


@pytest.mark.parametrize("doc", ["docs/DECISIONS.md", "README.md"])
def test_dotted_program_names_resolve(doc):
    names = _dotted_names((ROOT / doc).read_text(encoding="utf-8"))
    assert names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"ellreg.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert not missing, missing


def test_readme_names_every_exported_name_by_its_module():
    ellreg = importlib.import_module("ellreg")
    exported = [name for name in ellreg.__all__ if name != "__version__"]
    named = _dotted_names(README)
    missing = [name for name in exported
               if f"{getattr(ellreg, name).__module__.split('.')[-1]}.{name}" not in named]
    assert not missing, missing


def test_readme_tour_has_one_short_bullet_per_module():
    # a bullet names its module's entry points and cites the record: it restates no rule
    tour = README[README.index("## Library tour"):README.index("## Command line")]
    bullets = re.findall(r"^- `ellreg\.\w+`.*\n(?:  .*\n)*", tour, flags=re.M)
    assert sorted(re.match(r"- `ellreg\.(\w+)`", b).group(1) for b in bullets) == MODULES
    long = [b.split("`")[1] for b in bullets if b.count("\n") > 6]
    assert not long, long


def test_readme_names_no_private_program_name():
    assert not _PRIVATE.findall(README)


# a name with one leading underscore, not the subscript of a norm such as ||w||_p or |sym|_F
_PRIVATE = re.compile(r"(?<![\w|])_[A-Za-z]\w*")


def _ellreg_names() -> set:
    """The names each ellreg module and each of its classes defines."""
    names = set()
    for stem in MODULES + ["__init__"]:
        module = importlib.import_module("ellreg" if stem == "__init__" else f"ellreg.{stem}")
        names.update(vars(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("ellreg"):
                names.update(dir(obj), getattr(obj, "__annotations__", {}))
    return names


def _bound(tree: ast.AST) -> set:
    """The names a file binds: defs, classes, arguments, imports, assigned names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _prose(source: str, tree: ast.AST) -> str:
    """The comments and the module, class and function docstrings of a file."""
    comments = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                if t.type == tokenize.COMMENT]
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return "\n".join(comments + [d for d in docs if d])


def test_private_names_in_comments_and_docstrings_exist():
    # a fold or a rename leaves no comment naming the function it removed
    known = _ellreg_names()
    files = sorted([*(ROOT / "src" / "ellreg").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    stale = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        names = set(_PRIVATE.findall(_prose(source, tree))) - known - _bound(tree)
        stale += [(path.name, name) for name in sorted(names)]
    assert not stale, stale
