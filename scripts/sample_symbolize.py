#!/usr/bin/env python3
"""Symbolise a sample_preload.c dump over `nm -C` and print profile tables.

usage: sample_symbolize.py SAMPLES BINARY [--top N] [--focus FRAME]

Tables: self time by leaf symbol, inclusive time (a symbol anywhere on the
stack, once per sample), and libc leaves by the Rust caller that entered
them (libc has no frame pointers and no static symbols here, so `memmove`
called from three places would otherwise be one opaque row). `--focus
run_until` keeps only samples with a matching frame and cuts each stack at
it, so shares are of the measured loop rather than of set-up plus loop. Needs only `nm` and python3.
"""
import argparse
import bisect
import collections
import re
import subprocess


def load_symbols(binary):
    """Sorted (address, name) for the text symbols of `binary`."""
    out = subprocess.run(['nm', '-C', '--defined-only', binary],
                         capture_output=True, text=True, check=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(' ', 2)
        if len(parts) == 3 and parts[1] in 'tTwW':
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return syms


def short(name):
    """Drops the legacy-mangling hash suffix (`::h0123456789abcdef`)."""
    return re.sub(r'::h[0-9a-f]{16}$', '', name)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('samples')
    ap.add_argument('binary')
    ap.add_argument('--top', type=int, default=15)
    ap.add_argument('--focus', help='keep only samples with a frame containing this text')
    args = ap.parse_args()

    maps, stacks, dropped = [], [], 0
    for line in open(args.samples):
        tag, _, rest = line.partition(' ')
        if tag == 'M':
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split('-'))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else '[anon]'))
        elif tag == 'S':
            stacks.append([int(x, 16) for x in rest.split()])
        elif tag == 'D':
            dropped = int(rest)
    exe = next(path for *_, path in maps if path.endswith(args.binary.rsplit('/', 1)[-1]))
    base = min(lo - off for lo, _, off, path in maps if path == exe)
    syms = load_symbols(args.binary)
    addrs = [a for a, _ in syms]

    def resolve(addr):
        """Symbol for a program address; (name, in_binary)."""
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                if path != exe:
                    return '[' + path.rsplit('/', 1)[-1] + ']', False
                i = bisect.bisect_right(addrs, addr - base) - 1
                return (short(syms[i][1]) if i >= 0 else '[?]'), True
        return '[unmapped]', False

    self_t, incl, libc_by_caller = (collections.Counter() for _ in range(3))
    kept = 0
    for words in stacks:
        rip, top, rets = words[0], words[1], words[2:]
        leaf, in_binary = resolve(rip)
        frames = [leaf]
        if not in_binary:
            # Frameless leaf outside the binary: the word at RSP is its
            # return address unless it pushed something first.
            caller, ok = resolve(top)
            caller = caller if ok else '[unknown caller]'
            frames.append(caller)
        frames += [resolve(r)[0] for r in rets]
        if args.focus:
            at = next((i for i, f in enumerate(frames) if args.focus in f), None)
            if at is None:
                continue
            frames = frames[:at + 1]  # its callers are on every kept sample
        kept += 1
        self_t[leaf] += 1
        if not in_binary:
            libc_by_caller[f'{leaf} <- {frames[1]}'] += 1
        for f in set(frames):
            incl[f] += 1

    scope = f'samples with a `{args.focus}` frame' if args.focus else 'all samples'
    print(f'{len(stacks)} samples at 200 us ({dropped} dropped), {kept} kept: {scope}')
    for title, table in (('self', self_t), ('inclusive', incl), ('libc leaf <- caller', libc_by_caller)):
        print(f'\n{title:<28} samples   share')
        for name, n in table.most_common(args.top):
            print(f'  {n:>7} {100 * n / max(kept, 1):>6.1f}%  {name}')


if __name__ == '__main__':
    main()
