"""A tree is reused only when its fingerprint is the one taken right after it was built.

Each case builds a tree as a copy of a pristine one, takes the tree's
fingerprint, lets a job act on it, and checks that the fingerprint is
unchanged exactly when the tree still holds what a fresh copy of the
pristine tree would. Every check runs both ``tree_unchanged``, which stops
at the first entry that differs, and a full ``tree_fingerprint``, and they
must agree.
"""

import os
import shutil
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from failpass.reproducer import tree_fingerprint, tree_unchanged
from conftest import git, make_repo

SENTINEL = b"outside the tree\n"


def snapshot(root: Path) -> dict:
    """Every entry under root (root included), walked without following symlinks.

    A directory maps to its mode and mtime, a file to its mode, mtime and
    bytes, a symlink to its mtime and target.
    """
    out = {}

    def visit(path: Path, rel: str):
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            out[rel] = ("link", st.st_mtime_ns, os.readlink(path))
        elif stat.S_ISDIR(st.st_mode):
            out[rel] = ("dir", st.st_mode, st.st_mtime_ns)
            for name in sorted(os.listdir(path)):
                visit(path / name, f"{rel}/{name}")
        else:
            out[rel] = ("file", st.st_mode, st.st_mtime_ns, path.read_bytes())

    visit(Path(root), ".")
    return out


def fresh_snapshot(pristine: Path, scratch: Path) -> dict:
    fresh = scratch / "fresh"
    shutil.copytree(pristine, fresh, symlinks=True)
    try:
        return snapshot(fresh)
    finally:
        shutil.rmtree(fresh)


def has_linked_file(root: Path) -> bool:
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            st_ = os.lstat(os.path.join(dirpath, name))
            if stat.S_ISREG(st_.st_mode) and st_.st_nlink > 1:
                return True
    return False


def unchanged(work: Path, built: dict) -> bool:
    same = tree_unchanged(work, built)
    assert same == (tree_fingerprint(work) == built)
    return same


@pytest.fixture()
def world(tmp_path):
    """A pristine tree, a tree built as a copy of it with its fingerprint, and an outside directory with a sentinel."""
    pristine = tmp_path / "pristine"
    (pristine / "src" / "pkg").mkdir(parents=True)
    (pristine / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (pristine / "src" / "pkg" / "data.txt").write_text("abcdef\n")
    (pristine / "run.sh").write_text("#!/bin/sh\nexit 0\n")
    (pristine / "run.sh").chmod(0o755)
    (pristine / "docs").mkdir()
    (pristine / "docs" / "index.md").write_text("# docs\n")
    os.symlink("src/pkg", pristine / "pkg-link")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "sentinel").write_bytes(SENTINEL)
    work = tmp_path / "work"
    shutil.copytree(pristine, work, symlinks=True)
    return pristine, work, outside, tmp_path, tree_fingerprint(work)


class TestFixedCases:
    def test_same_size_edit_with_mtime_reset(self, world):
        pristine, work, _, _, built = world
        target = work / "src" / "pkg" / "data.txt"
        before = os.stat(target)
        target.write_text("ABCDEF\n")
        os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert not unchanged(work, built)

    def test_file_and_directory_swap_types(self, world):
        pristine, work, _, _, built = world
        (work / "run.sh").unlink()
        (work / "run.sh").mkdir()
        assert not unchanged(work, built)
        shutil.rmtree(work)
        shutil.copytree(pristine, work, symlinks=True)
        shutil.rmtree(work / "docs")
        (work / "docs").write_text("now a file\n")
        assert not unchanged(work, built)

    def test_added_entry_with_the_directory_mtime_put_back(self, world):
        pristine, work, _, _, built = world
        before = os.stat(work / "docs")
        (work / "docs" / "extra.md").write_text("extra\n")
        os.utime(work / "docs", ns=(before.st_atime_ns, before.st_mtime_ns))
        assert not unchanged(work, built)

    def test_symlink_to_an_outside_directory_is_not_followed(self, world):
        pristine, work, outside, _, built = world
        # the link's target holds exactly what the directory held: only the link itself differs
        shutil.copytree(pristine / "docs", outside / "docs")
        shutil.copystat(pristine / "docs", outside / "docs")
        root = os.stat(work)
        shutil.rmtree(work / "docs")
        os.symlink(outside / "docs", work / "docs")
        os.utime(work, ns=(root.st_atime_ns, root.st_mtime_ns))
        assert not unchanged(work, built)
        assert sorted(os.listdir(outside)) == ["docs", "sentinel"]
        assert (outside / "sentinel").read_bytes() == SENTINEL

    @pytest.mark.parametrize("outside_bytes", [b"x = 1\n", b"x = 2\n", b"a longer outside file\n"])
    def test_hard_link_to_an_outside_file_is_replaced(self, world, outside_bytes):
        """A file that shares its inode with one outside the tree reads as changed, so the tree is rebuilt."""
        pristine, work, outside, _, built = world
        original = pristine / "src" / "pkg" / "mod.py"
        shared = outside / "shared.py"
        shared.write_bytes(outside_bytes)
        shutil.copystat(original, shared)
        before = os.stat(shared)
        pkg = os.stat(work / "src" / "pkg")
        (work / "src" / "pkg" / "mod.py").unlink()
        os.link(shared, work / "src" / "pkg" / "mod.py")
        os.utime(work / "src" / "pkg", ns=(pkg.st_atime_ns, pkg.st_mtime_ns))
        assert not unchanged(work, built)
        after = os.stat(shared)
        assert shared.read_bytes() == outside_bytes
        assert (after.st_mode, after.st_mtime_ns, after.st_nlink) == (before.st_mode, before.st_mtime_ns, 2)

    def test_git_checkout_rewrites_the_index(self, tmp_path):
        pristine = tmp_path / "pristine"
        first, _ = make_repo(pristine, [{"a.txt": "one\n", "run.sh": "#!/bin/sh\n"},
                                        {"a.txt": "two\n", "b/c.txt": "new\n"}])
        work = tmp_path / "work"
        shutil.copytree(pristine, work, symlinks=True)
        built = tree_fingerprint(work)
        assert unchanged(work, built)
        index_before = (work / ".git" / "index").read_bytes()
        git(work, "checkout", "--quiet", first)
        assert (work / ".git" / "index").read_bytes() != index_before
        assert not unchanged(work, built)

    @pytest.mark.parametrize("change", ["chmod", "touch"])
    def test_root_mode_and_mtime_count(self, world, change):
        pristine, work, _, _, built = world
        if change == "chmod":
            work.chmod(os.stat(work).st_mode ^ 0o020)
        else:
            os.utime(work, ns=(1_000_000_000, 1_000_000_000))
        assert not unchanged(work, built)

    def test_unchanged_copy_stays_equal(self, world):
        pristine, work, _, tmp_path, built = world
        assert unchanged(work, built)
        assert unchanged(work, built)
        # entries are keyed by their path in the tree, so a fresh copy elsewhere reads the same
        fresh = tmp_path / "fresh"
        shutil.copytree(pristine, fresh, symlinks=True)
        assert unchanged(fresh, built)

    def test_mode_change_with_mtime_kept(self, world):
        _, work, _, _, built = world
        target = work / "run.sh"
        before = os.stat(target)
        target.chmod(0o644)
        os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert not unchanged(work, built)

    def test_retargeted_symlink_with_mtime_kept(self, world):
        _, work, _, _, built = world
        link = work / "pkg-link"
        root = os.stat(work)
        link.unlink()
        os.symlink("src/pkg/", link)
        os.utime(link, ns=(1_000_000_000, 1_000_000_000), follow_symlinks=False)
        os.utime(work, ns=(root.st_atime_ns, root.st_mtime_ns))
        assert not unchanged(work, built)

    def test_removed_entry_with_the_directory_mtime_put_back(self, world):
        _, work, _, _, built = world
        before = os.stat(work / "docs")
        (work / "docs" / "index.md").unlink()
        os.utime(work / "docs", ns=(before.st_atime_ns, before.st_mtime_ns))
        assert not unchanged(work, built)

    def test_an_unreadable_entry_raises(self, world, monkeypatch):
        _, work, _, _, built = world
        target = os.fspath(work / "src" / "pkg" / "data.txt")

        real_open = os.open

        def refusing_open(path, *args, **kwargs):
            if os.fspath(path) == target:
                raise PermissionError(13, "Permission denied", target)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing_open)
        with pytest.raises(PermissionError):
            tree_fingerprint(work)
        with pytest.raises(PermissionError):
            tree_unchanged(work, built)

    def test_a_copy_whose_files_were_only_read_is_equal(self, world):
        pristine, work, _, _, built = world
        for path in entries(work):
            if path.is_file() and not path.is_symlink():
                path.read_bytes()
        assert unchanged(work, built)


# --- random pristine trees and random job mutations --------------------------

NAMES = ("a", "b", "c", "d")
MTIMES = st.integers(1_000_000_000, 2_000_000_000).map(lambda s: s * 1_000_000_000 + 123)
CONTENTS = st.binary(max_size=40)

nodes = st.recursive(
    st.one_of(
        st.tuples(st.just("file"), CONTENTS, st.booleans(), MTIMES),
        st.tuples(st.just("link"), st.sampled_from(("a", "../b", "c/d", "/nonexistent", "."))),
    ),
    lambda children: st.tuples(st.just("dir"), st.dictionaries(st.sampled_from(NAMES), children, max_size=3),
                               st.booleans(), MTIMES),
    max_leaves=12,
)
trees = st.dictionaries(st.sampled_from(NAMES), nodes, min_size=1, max_size=4)

OPS = ("edit_same_size", "append", "truncate", "chmod", "touch", "delete", "to_dir", "to_file",
       "to_outside_link", "retarget", "outside_hard_link", "add_file", "add_dir")
mutations = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 1000), CONTENTS), max_size=6)


def build(path: Path, node):
    kind = node[0]
    if kind == "file":
        _, content, executable, mtime = node
        path.write_bytes(content)
        path.chmod(0o755 if executable else 0o644)
        os.utime(path, ns=(mtime, mtime))
    elif kind == "link":
        os.symlink(node[1], path)
    else:
        _, children, open_to_group, mtime = node
        path.mkdir()
        for name, child in children.items():
            build(path / name, child)
        path.chmod(0o775 if open_to_group else 0o755)
        os.utime(path, ns=(mtime, mtime))


def entries(root: Path) -> list[Path]:
    found = []
    for dirpath, dirnames, filenames in os.walk(root):  # os.walk does not descend into symlinked dirs
        found += [Path(dirpath) / n for n in sorted(dirnames) + sorted(filenames)]
    return sorted(found)


def remove(path: Path):
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink()


def mutate(work: Path, outside: Path, op: str, pick: int, data: bytes):
    """What a job might do to its tree; the entry it acts on is chosen by ``pick``."""
    found = entries(work)
    dirs = [work] + [p for p in found if p.is_dir() and not p.is_symlink()]
    if op in ("add_file", "add_dir"):
        new = dirs[pick % len(dirs)] / f"new{pick}"
        if not os.path.lexists(new):
            new.mkdir() if op == "add_dir" else new.write_bytes(data)
        return
    if not found:
        return
    path = found[pick % len(found)]
    is_file = path.is_file() and not path.is_symlink()
    if op == "edit_same_size" and is_file:
        st_ = os.stat(path)
        old = path.read_bytes()
        path.write_bytes(bytes(b ^ 0xFF for b in old))
        os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns))
    elif op == "append" and is_file:
        with open(path, "ab") as f:
            f.write(data or b"+")
    elif op == "truncate" and is_file:
        path.write_bytes(b"")
    elif op == "chmod" and not path.is_symlink():
        path.chmod(os.stat(path).st_mode ^ 0o011)
    elif op == "touch":
        os.utime(path, ns=(pick, pick), follow_symlinks=False)
    elif op == "delete":
        remove(path)
    elif op == "to_dir":
        remove(path)
        path.mkdir()
        (path / "inside").write_bytes(data)
    elif op == "to_file":
        remove(path)
        path.write_bytes(data)
    elif op == "to_outside_link":
        remove(path)
        os.symlink(outside, path)
    elif op == "retarget" and path.is_symlink():
        path.unlink()
        os.symlink(f"elsewhere{pick}", path)
    elif op == "outside_hard_link" and is_file:
        shared = outside / "shared"
        if not shared.exists():
            shared.write_bytes(path.read_bytes())
        path.unlink()
        os.link(shared, path)


class TestRandomTrees:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(tree=trees, steps=mutations)
    def test_same_tree_iff_equal_to_a_fresh_copy(self, tree, steps):
        with tempfile.TemporaryDirectory(prefix="same-tree-prop-") as tmp:
            tmp = Path(tmp)
            pristine, outside = tmp / "pristine", tmp / "outside"
            build(pristine, ("dir", tree, False, 1_500_000_000_000_000_000))
            outside.mkdir()
            (outside / "sentinel").write_bytes(SENTINEL)
            work = tmp / "work"
            shutil.copytree(pristine, work, symlinks=True)
            built = tree_fingerprint(work)
            want = snapshot(pristine)
            for step in steps:
                mutate(work, outside, *step)
            outside_before, work_before = snapshot(outside), snapshot(work)
            same = unchanged(work, built)
            assert same == (work_before == fresh_snapshot(pristine, tmp) and not has_linked_file(work))
            assert (snapshot(work), snapshot(outside), snapshot(pristine)) == (work_before, outside_before, want)
            assert (outside / "sentinel").read_bytes() == SENTINEL
