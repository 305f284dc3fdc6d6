/* LD_PRELOAD sampling shim for scripts/sample_profile.sh: the repo's answer
 * to "no perf in the sandbox". SIGALRM from ITIMER_REAL every 200 us; the
 * handler stores RIP, the word at RSP (the return address while a frameless
 * libc leaf such as memmove runs) and a frame-pointer walk into a static
 * buffer; at exit /proc/self/maps and the samples go to $SAMPLE_OUT for
 * sample_symbolize.py. Single-threaded x86-64 Linux targets built with
 * -C force-frame-pointers=yes. Needs only gcc. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 30
#define WORDS (DEPTH + 2) /* rip, *rsp, return addresses; 0-terminated */
#define MAX_SAMPLES 400000

static uint64_t samples[MAX_SAMPLES][WORDS];
static volatile size_t taken, dropped;
static uintptr_t stack_hi;

static void on_alarm(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    if (taken >= MAX_SAMPLES) { dropped++; return; }
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t sp = (uintptr_t)regs[REG_RSP], fp = (uintptr_t)regs[REG_RBP];
    uint64_t *out = samples[taken];
    size_t n = 0;
    out[n++] = (uint64_t)regs[REG_RIP];
    out[n++] = (sp % 8 == 0 && sp < stack_hi) ? *(uint64_t *)sp : 0;
    /* A frame is [saved rbp][return address]; frames only move up the one
     * stack, so anything else is a register a frameless leaf reused. */
    while (n < WORDS && fp % 8 == 0 && fp >= sp && fp + 16 <= stack_hi) {
        out[n++] = ((uint64_t *)fp)[1];
        uintptr_t next = ((uint64_t *)fp)[0];
        if (next <= fp) break;
        fp = next;
    }
    if (n < WORDS) out[n] = 0;
    taken++;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    FILE *out = fopen(path ? path : "samples.txt", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (size_t i = 0; i < taken; i++) {
        fputc('S', out);
        for (size_t w = 0; w < WORDS && (w < 2 || samples[i][w]); w++)
            fprintf(out, " %llx", (unsigned long long)samples[i][w]);
        fputc('\n', out);
    }
    fprintf(out, "D %zu\n", dropped);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    char line[4096];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%*lx-%lx", &stack_hi);
    if (maps) fclose(maps);
    unsetenv("LD_PRELOAD"); /* children (none today) run unsampled */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_alarm;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGALRM, &sa, NULL);
    struct itimerval every = {{0, 200}, {0, 200}};
    setitimer(ITIMER_REAL, &every, NULL);
    atexit(dump);
}
